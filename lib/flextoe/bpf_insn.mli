(** eBPF instruction set: structured form, assembler, and the
    standard 8-byte wire encoding.

    FlexTOE accepts XDP modules as eBPF programs compiled to NFP
    assembly (§3.3). We implement a practical subset of the classic
    eBPF ISA — 64/32-bit ALU, byte-swaps, loads/stores, conditional
    jumps, helper calls, exit — enough to run the paper's
    connection-splicing (Listing 1), firewalling, and VLAN-strip
    modules. Programs can be authored directly as instruction arrays
    or via the tiny label-resolving {!assemble} layer, and round-trip
    through {!encode}/{!decode} in the kernel's instruction format. *)

type size = W8 | W16 | W32 | W64

type alu_op =
  | Add | Sub | Mul | Div | Or | And | Lsh | Rsh | Neg | Mod | Xor
  | Mov | Arsh

type jmp_cond =
  | Jeq | Jgt | Jge | Jlt | Jle | Jset | Jne | Jsgt | Jsge | Jslt | Jsle

type src = Reg of int | Imm of int

type t =
  | Alu64 of alu_op * int * src  (** dst op= src, 64-bit. *)
  | Alu32 of alu_op * int * src
  | Endian_be of int * int  (** dst, bits in {16,32,64}: to big-endian. *)
  | Ld_imm64 of int * int64
  | Ldx of size * int * int * int  (** dst <- [src + off]. *)
  | St_imm of size * int * int * int  (** [dst + off] <- imm. *)
  | Stx of size * int * int * int  (** [dst + off] <- src. *)
  | Ja of int  (** Unconditional jump, relative. *)
  | Jmp of jmp_cond * int * src * int  (** if (dst cond src) jump off. *)
  | Call of int  (** Helper call by id. *)
  | Exit

val stack_size : int
(** Bytes in the program's stack frame (512); r10 points at its end. *)

val width_of : size -> int
(** Access width in bytes. *)

(** {1 Semantics}

    The one definition of what the ALU and jump instructions compute,
    shared by the VM ({!Ebpf.run}) and the verifier's constant
    folding. *)

val alu64 : alu_op -> int64 -> int64 -> int64
(** [alu64 op dst src]: the new 64-bit [dst]. Division by zero gives
    0 and modulo by zero leaves [dst]; shift counts are taken mod 64;
    [Neg] ignores [src]. *)

val alu32 : alu_op -> int64 -> int64 -> int64
(** As {!alu64} on the low 32 bits of both operands (shift counts mod
    32, [Arsh] sign-extends from bit 31); the result is
    zero-extended. *)

val jump_taken : jmp_cond -> int64 -> int64 -> bool
(** [jump_taken cond dst src]: whether [Jmp (cond, ...)] jumps.
    [Jgt]..[Jle] compare unsigned, [Jsgt]..[Jsle] signed. *)

(** Helper ids understood by the VM:
    - [helper_map_lookup]: r1=map id, r2=key ptr; r0=value ptr or 0;
    - [helper_map_update]: r1=map, r2=key ptr, r3=value ptr; r0=0;
    - [helper_map_delete]: r1=map, r2=key ptr; r0=0 or -1;
    - [helper_ktime]: r0 = virtual time in ns;
    - [helper_adjust_head]: r2=delta; r0=0 or -1; moves the packet
      start (VLAN strip);
    - [helper_csum_fixup]: recompute the frame's IPv4/TCP checksums in
      place (the NFP does this in hardware on egress; the paper notes
      FlexTOE handles checksum updates for spliced segments). *)

val helper_map_lookup : int
val helper_map_update : int
val helper_map_delete : int
val helper_ktime : int
val helper_adjust_head : int
val helper_csum_fixup : int

(** XDP return codes (r0 at exit): aborted 0, drop 1, pass 2, tx 3,
    redirect 4. *)

val xdp_aborted : int
val xdp_drop : int
val xdp_pass : int
val xdp_tx : int
val xdp_redirect : int

(** {1 Assembler} *)

type labeled = L of string | I of t | Jl of jmp_cond * int * src * string
  | Jal of string
(** Assembly stream element: a label definition, a plain instruction,
    or a jump to a label. *)

val assemble : labeled list -> t array
(** Resolve labels to relative offsets. Raises [Invalid_argument] on
    unknown or duplicate labels. *)

(** {1 Wire format} *)

val encode : t array -> Bytes.t
(** Standard 8-byte-per-slot encoding ([Ld_imm64] uses two slots). *)

val decode : Bytes.t -> (t array, string) result

val pp : Format.formatter -> t -> unit
