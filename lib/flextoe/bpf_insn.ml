type size = W8 | W16 | W32 | W64

type alu_op =
  | Add | Sub | Mul | Div | Or | And | Lsh | Rsh | Neg | Mod | Xor
  | Mov | Arsh

type jmp_cond =
  | Jeq | Jgt | Jge | Jlt | Jle | Jset | Jne | Jsgt | Jsge | Jslt | Jsle

type src = Reg of int | Imm of int

type t =
  | Alu64 of alu_op * int * src
  | Alu32 of alu_op * int * src
  | Endian_be of int * int
  | Ld_imm64 of int * int64
  | Ldx of size * int * int * int
  | St_imm of size * int * int * int
  | Stx of size * int * int * int
  | Ja of int
  | Jmp of jmp_cond * int * src * int
  | Call of int
  | Exit

let stack_size = 512
let width_of = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

(* --- Semantics -------------------------------------------------------- *)

let alu64 op a b =
  let open Int64 in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if b = 0L then 0L else unsigned_div a b
  | Or -> logor a b
  | And -> logand a b
  | Lsh -> shift_left a (to_int (logand b 63L))
  | Rsh -> shift_right_logical a (to_int (logand b 63L))
  | Neg -> neg a
  | Mod -> if b = 0L then a else unsigned_rem a b
  | Xor -> logxor a b
  | Mov -> b
  | Arsh -> shift_right a (to_int (logand b 63L))

let mask32 v = Int64.logand v 0xFFFFFFFFL

let alu32 op a b =
  let a = mask32 a and b = mask32 b in
  let open Int64 in
  let r =
    match op with
    | Add -> add a b
    | Sub -> sub a b
    | Mul -> mul a b
    | Div -> if b = 0L then 0L else unsigned_div a b
    | Or -> logor a b
    | And -> logand a b
    | Lsh -> shift_left a (to_int (logand b 31L))
    | Rsh -> shift_right_logical a (to_int (logand b 31L))
    | Neg -> neg a
    | Mod -> if b = 0L then a else unsigned_rem a b
    | Xor -> logxor a b
    | Mov -> b
    | Arsh ->
        (* sign-extend the 32-bit value before shifting *)
        let sa = shift_right (shift_left a 32) 32 in
        shift_right sa (to_int (logand b 31L))
  in
  mask32 r

let jump_taken cond a b =
  let u = Int64.unsigned_compare a b in
  let sg = Int64.compare a b in
  match cond with
  | Jeq -> a = b
  | Jne -> a <> b
  | Jgt -> u > 0
  | Jge -> u >= 0
  | Jlt -> u < 0
  | Jle -> u <= 0
  | Jset -> Int64.logand a b <> 0L
  | Jsgt -> sg > 0
  | Jsge -> sg >= 0
  | Jslt -> sg < 0
  | Jsle -> sg <= 0

let helper_map_lookup = 1
let helper_map_update = 2
let helper_map_delete = 3
let helper_ktime = 5
let helper_adjust_head = 44
let helper_csum_fixup = 100

let xdp_aborted = 0
let xdp_drop = 1
let xdp_pass = 2
let xdp_tx = 3
let xdp_redirect = 4

(* --- Assembler ------------------------------------------------------ *)

type labeled =
  | L of string
  | I of t
  | Jl of jmp_cond * int * src * string
  | Jal of string

let assemble items =
  (* First pass: label -> instruction index. Ld_imm64 occupies two
     encoding slots but one array slot; offsets here are in array
     slots (the VM interprets the array form). *)
  let labels = Hashtbl.create 16 in
  let idx = ref 0 in
  List.iter
    (fun item ->
      match item with
      | L name ->
          if Hashtbl.mem labels name then
            invalid_arg ("Bpf_insn.assemble: duplicate label " ^ name);
          Hashtbl.replace labels name !idx
      | I _ | Jl _ | Jal _ -> incr idx)
    items;
  let resolve name at =
    match Hashtbl.find_opt labels name with
    | Some target -> target - at - 1
    | None -> invalid_arg ("Bpf_insn.assemble: unknown label " ^ name)
  in
  let out = ref [] in
  let idx = ref 0 in
  List.iter
    (fun item ->
      match item with
      | L _ -> ()
      | I i ->
          out := i :: !out;
          incr idx
      | Jl (cond, dst, src, name) ->
          out := Jmp (cond, dst, src, resolve name !idx) :: !out;
          incr idx
      | Jal name ->
          out := Ja (resolve name !idx) :: !out;
          incr idx)
    items;
  Array.of_list (List.rev !out)

(* --- Wire encoding ---------------------------------------------------- *)

let alu_code = function
  | Add -> 0x0 | Sub -> 0x1 | Mul -> 0x2 | Div -> 0x3 | Or -> 0x4
  | And -> 0x5 | Lsh -> 0x6 | Rsh -> 0x7 | Neg -> 0x8 | Mod -> 0x9
  | Xor -> 0xa | Mov -> 0xb | Arsh -> 0xc

let alu_of_code = function
  | 0x0 -> Some Add | 0x1 -> Some Sub | 0x2 -> Some Mul | 0x3 -> Some Div
  | 0x4 -> Some Or | 0x5 -> Some And | 0x6 -> Some Lsh | 0x7 -> Some Rsh
  | 0x8 -> Some Neg | 0x9 -> Some Mod | 0xa -> Some Xor | 0xb -> Some Mov
  | 0xc -> Some Arsh | _ -> None

let jmp_code = function
  | Jeq -> 0x1 | Jgt -> 0x2 | Jge -> 0x3 | Jset -> 0x4 | Jne -> 0x5
  | Jsgt -> 0x6 | Jsge -> 0x7 | Jlt -> 0xa | Jle -> 0xb | Jslt -> 0xc
  | Jsle -> 0xd

let jmp_of_code = function
  | 0x1 -> Some Jeq | 0x2 -> Some Jgt | 0x3 -> Some Jge | 0x4 -> Some Jset
  | 0x5 -> Some Jne | 0x6 -> Some Jsgt | 0x7 -> Some Jsge | 0xa -> Some Jlt
  | 0xb -> Some Jle | 0xc -> Some Jslt | 0xd -> Some Jsle | _ -> None

let size_bits = function W32 -> 0x00 | W16 -> 0x08 | W8 -> 0x10
  | W64 -> 0x18

let size_of_bits = function
  | 0x00 -> W32 | 0x08 -> W16 | 0x10 -> W8 | _ -> W64

(* One 8-byte slot: opcode, dst|src<<4, off (s16 LE), imm (s32 LE). *)
let write_slot buf i ~opcode ~dst ~src ~off ~imm =
  let base = i * 8 in
  Bytes.set buf base (Char.chr (opcode land 0xFF));
  Bytes.set buf (base + 1) (Char.chr ((dst land 0xF) lor ((src land 0xF) lsl 4)));
  let off = off land 0xFFFF in
  Bytes.set buf (base + 2) (Char.chr (off land 0xFF));
  Bytes.set buf (base + 3) (Char.chr ((off lsr 8) land 0xFF));
  let imm = Int64.to_int (Int64.logand imm 0xFFFFFFFFL) in
  Bytes.set buf (base + 4) (Char.chr (imm land 0xFF));
  Bytes.set buf (base + 5) (Char.chr ((imm lsr 8) land 0xFF));
  Bytes.set buf (base + 6) (Char.chr ((imm lsr 16) land 0xFF));
  Bytes.set buf (base + 7) (Char.chr ((imm lsr 24) land 0xFF))

let slots_of = function Ld_imm64 _ -> 2 | _ -> 1

let src_fields = function
  | Reg r -> (0x08, r, 0L)
  | Imm v -> (0x00, 0, Int64.of_int v)

let encode prog =
  let n = Array.length prog in
  (* Wire jump offsets count 8-byte slots; array offsets count
     instructions. Precompute the slot index of every instruction. *)
  let slot_of = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    slot_of.(i + 1) <- slot_of.(i) + slots_of prog.(i)
  done;
  let fix_off i off =
    let target = i + 1 + off in
    if target < 0 || target > n then
      invalid_arg "Bpf_insn.encode: jump out of bounds";
    slot_of.(target) - slot_of.(i) - slots_of prog.(i)
  in
  let total = slot_of.(n) in
  let buf = Bytes.make (total * 8) '\000' in
  let slot = ref 0 in
  Array.iteri
    (fun i insn ->
      (match insn with
      | Alu64 (op, dst, s) ->
          let sbit, sreg, imm = src_fields s in
          write_slot buf !slot
            ~opcode:(0x07 lor sbit lor (alu_code op lsl 4))
            ~dst ~src:sreg ~off:0 ~imm
      | Alu32 (op, dst, s) ->
          let sbit, sreg, imm = src_fields s in
          write_slot buf !slot
            ~opcode:(0x04 lor sbit lor (alu_code op lsl 4))
            ~dst ~src:sreg ~off:0 ~imm
      | Endian_be (dst, bits) ->
          write_slot buf !slot
            ~opcode:(0x04 lor 0x08 lor (0xd lsl 4))
            ~dst ~src:0 ~off:0 ~imm:(Int64.of_int bits)
      | Ld_imm64 (dst, v) ->
          write_slot buf !slot ~opcode:0x18 ~dst ~src:0 ~off:0
            ~imm:(Int64.logand v 0xFFFFFFFFL);
          write_slot buf (!slot + 1) ~opcode:0 ~dst:0 ~src:0 ~off:0
            ~imm:(Int64.shift_right_logical v 32)
      | Ldx (sz, dst, src, off) ->
          write_slot buf !slot
            ~opcode:(0x61 lor size_bits sz)
            ~dst ~src ~off ~imm:0L
      | St_imm (sz, dst, off, imm) ->
          write_slot buf !slot
            ~opcode:(0x62 lor size_bits sz)
            ~dst ~src:0 ~off ~imm:(Int64.of_int imm)
      | Stx (sz, dst, off, src) ->
          write_slot buf !slot
            ~opcode:(0x63 lor size_bits sz)
            ~dst ~src ~off ~imm:0L
      | Ja off ->
          write_slot buf !slot ~opcode:0x05 ~dst:0 ~src:0 ~off:(fix_off i off)
            ~imm:0L
      | Jmp (cond, dst, s, off) ->
          let sbit, sreg, imm = src_fields s in
          write_slot buf !slot
            ~opcode:(0x05 lor sbit lor (jmp_code cond lsl 4))
            ~dst ~src:sreg ~off:(fix_off i off) ~imm
      | Call id ->
          write_slot buf !slot ~opcode:0x85 ~dst:0 ~src:0 ~off:0
            ~imm:(Int64.of_int id)
      | Exit -> write_slot buf !slot ~opcode:0x95 ~dst:0 ~src:0 ~off:0 ~imm:0L);
      slot := !slot + slots_of insn)
    prog;
  buf

let read_slot buf i =
  let base = i * 8 in
  let b n = Char.code (Bytes.get buf (base + n)) in
  let opcode = b 0 in
  let dst = b 1 land 0xF in
  let src = (b 1 lsr 4) land 0xF in
  let off =
    let v = b 2 lor (b 3 lsl 8) in
    if v >= 0x8000 then v - 0x10000 else v
  in
  let imm_u = b 4 lor (b 5 lsl 8) lor (b 6 lsl 16) lor (b 7 lsl 24) in
  let imm = if imm_u >= 0x80000000 then imm_u - 0x100000000 else imm_u in
  (opcode, dst, src, off, imm, imm_u)

let decode buf =
  if Bytes.length buf mod 8 <> 0 then Error "truncated program"
  else begin
    let n = Bytes.length buf / 8 in
    let out = ref [] in
    let slots = ref [] in  (* starting slot of each decoded insn *)
    let err = ref None in
    let i = ref 0 in
    while !i < n && !err = None do
      slots := !i :: !slots;
      let opcode, dst, src, off, imm, imm_u = read_slot buf !i in
      let cls = opcode land 0x07 in
      let push insn = out := insn :: !out in
      (match cls with
      | 0x07 | 0x04 -> begin
          let op = (opcode lsr 4) land 0xF in
          let is_reg = opcode land 0x08 <> 0 in
          if op = 0xd then push (Endian_be (dst, imm))
          else
            match alu_of_code op with
            | Some aop ->
                let s = if is_reg then Reg src else Imm imm in
                if cls = 0x07 then push (Alu64 (aop, dst, s))
                else push (Alu32 (aop, dst, s))
            | None -> err := Some "bad alu op"
        end
      | 0x00 ->
          (* LD: only LD_IMM64 supported. *)
          if opcode = 0x18 && !i + 1 < n then begin
            let _, _, _, _, _, hi = read_slot buf (!i + 1) in
            push
              (Ld_imm64
                 ( dst,
                   Int64.logor
                     (Int64.of_int (imm_u land 0xFFFFFFFF))
                     (Int64.shift_left (Int64.of_int hi) 32) ));
            incr i
          end
          else err := Some "unsupported LD"
      | 0x01 ->
          push (Ldx (size_of_bits (opcode land 0x18), dst, src, off))
      | 0x02 -> push (St_imm (size_of_bits (opcode land 0x18), dst, off, imm))
      | 0x03 -> push (Stx (size_of_bits (opcode land 0x18), dst, off, src))
      | 0x05 -> begin
          let op = (opcode lsr 4) land 0xF in
          let is_reg = opcode land 0x08 <> 0 in
          match op with
          | 0x0 -> push (Ja off)
          | 0x8 -> push (Call imm)
          | 0x9 -> push Exit
          | _ -> (
              match jmp_of_code op with
              | Some cond ->
                  let s = if is_reg then Reg src else Imm imm in
                  push (Jmp (cond, dst, s, off))
              | None -> err := Some "bad jmp op")
        end
      | _ -> err := Some "unsupported class");
      incr i
    done;
    match !err with
    | Some e -> Error e
    | None ->
        let insns = Array.of_list (List.rev !out) in
        let slot_starts = Array.of_list (List.rev !slots) in
        (* slot -> array index *)
        let of_slot = Hashtbl.create 64 in
        Array.iteri (fun idx s -> Hashtbl.replace of_slot s idx) slot_starts;
        let fix idx off =
          let target_slot = slot_starts.(idx) + slots_of insns.(idx) + off in
          match Hashtbl.find_opt of_slot target_slot with
          | Some t -> Ok (t - idx - 1)
          | None ->
              if target_slot = n then Ok (Array.length insns - idx - 1)
              else Error "jump into the middle of an instruction"
        in
        let err = ref None in
        Array.iteri
          (fun idx insn ->
            match insn with
            | Ja off -> begin
                match fix idx off with
                | Ok o -> insns.(idx) <- Ja o
                | Error e -> err := Some e
              end
            | Jmp (c, d, s, off) -> begin
                match fix idx off with
                | Ok o -> insns.(idx) <- Jmp (c, d, s, o)
                | Error e -> err := Some e
              end
            | _ -> ())
          insns;
        (match !err with Some e -> Error e | None -> Ok insns)
  end

let pp_src fmt = function
  | Reg r -> Format.fprintf fmt "r%d" r
  | Imm v -> Format.fprintf fmt "#%d" v

let pp fmt = function
  | Alu64 (op, d, s) ->
      Format.fprintf fmt "alu64.%d r%d, %a" (alu_code op) d pp_src s
  | Alu32 (op, d, s) ->
      Format.fprintf fmt "alu32.%d r%d, %a" (alu_code op) d pp_src s
  | Endian_be (d, bits) -> Format.fprintf fmt "be%d r%d" bits d
  | Ld_imm64 (d, v) -> Format.fprintf fmt "lddw r%d, %Ld" d v
  | Ldx (_, d, s, off) -> Format.fprintf fmt "ldx r%d, [r%d%+d]" d s off
  | St_imm (_, d, off, v) -> Format.fprintf fmt "st [r%d%+d], #%d" d off v
  | Stx (_, d, off, s) -> Format.fprintf fmt "stx [r%d%+d], r%d" d off s
  | Ja off -> Format.fprintf fmt "ja %+d" off
  | Jmp (c, d, s, off) ->
      Format.fprintf fmt "j.%d r%d, %a, %+d" (jmp_code c) d pp_src s off
  | Call id -> Format.fprintf fmt "call %d" id
  | Exit -> Format.fprintf fmt "exit"
