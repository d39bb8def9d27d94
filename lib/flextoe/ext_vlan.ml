(** VLAN-strip XDP module (one of the paper's "common XDP modules",
    Table 2).

    802.1Q-tagged ingress frames have their tag removed before
    entering the data path (which only handles untagged frames): the
    program copies the two MAC addresses forward by four bytes and
    adjusts the packet head, exactly how the real XDP idiom works. *)

open Bpf_insn

let program () =
  assemble
    [
      I (Ldx (W64, 6, 1, 0));
      I (Ldx (W64, 7, 1, 8));
      I (Alu64 (Mov, 2, Reg 6));
      I (Alu64 (Add, 2, Imm 18));
      Jl (Jgt, 2, Reg 7, "pass");
      (* Tagged? ethertype 0x8100 big-endian reads as 0x0081 LE. *)
      I (Ldx (W16, 3, 6, 12));
      Jl (Jne, 3, Imm 0x0081, "pass");
      (* Read both MACs before overwriting. *)
      I (Ldx (W64, 3, 6, 0));
      I (Ldx (W32, 4, 6, 8));
      I (Stx (W64, 6, 4, 3));
      I (Stx (W32, 6, 12, 4));
      (* Drop the first 4 bytes. *)
      I (Alu64 (Mov, 2, Imm 4));
      I (Call helper_adjust_head);
      L "pass";
      I (Alu64 (Mov, 0, Imm xdp_pass));
      I Exit;
    ]

type t = { xdp : Xdp.t }

let create engine =
  match Ebpf.load ~maps:[||] (program ()) with
  | Ok program -> { xdp = Xdp.create engine ~program ~maps:[||] }
  | Error v -> invalid_arg ("Ext_vlan: " ^ Verifier.violation_to_string v)

let xdp t = t.xdp
let install t dp = Xdp.install t.xdp dp
let stripped t = Xdp.passed t.xdp
