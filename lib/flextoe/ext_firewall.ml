(** Firewall XDP module (§3.3's worked example).

    A BPF hash map holds blacklisted source IPs; the eBPF program
    looks up each ingress frame's source address and drops on a hit.
    The control plane adds and removes entries dynamically through
    {!block}/{!unblock} — the map is shared state between the host and
    the data path, exactly as in the paper. *)

open Bpf_insn

type t = { xdp : Xdp.t; map : Bpf_map.t }

(* Frame offsets (untagged Ethernet/IPv4/TCP). *)
let off_ethertype = Tcp.Wire.off_ethertype
let off_ip_src = Tcp.Wire.off_ip_src

let program () =
  (* r6 = data, r7 = data_end. Malformed/short -> PASS (let the
     pipeline's validator deal with it); IPv4 with blacklisted source
     -> DROP. *)
  assemble
    [
      I (Ldx (W64, 6, 1, 0));
      I (Ldx (W64, 7, 1, 8));
      (* bounds: need the IPv4 header *)
      I (Alu64 (Mov, 2, Reg 6));
      I (Alu64 (Add, 2, Imm 34));
      Jl (Jgt, 2, Reg 7, "pass");
      (* IPv4? ethertype 0x0800 big-endian = 0x0008 as an LE u16 load *)
      I (Ldx (W16, 3, 6, off_ethertype));
      Jl (Jne, 3, Imm 0x0008, "pass");
      (* key = raw 4 source-address bytes *)
      I (Ldx (W32, 3, 6, off_ip_src));
      I (Alu64 (Mov, 4, Reg 10));
      I (Alu64 (Add, 4, Imm (-8)));
      I (Stx (W32, 4, 0, 3));
      I (Alu64 (Mov, 1, Imm 0));
      I (Alu64 (Mov, 2, Reg 4));
      I (Call helper_map_lookup);
      Jl (Jne, 0, Imm 0, "drop");
      L "pass";
      I (Alu64 (Mov, 0, Imm xdp_pass));
      I Exit;
      L "drop";
      I (Alu64 (Mov, 0, Imm xdp_drop));
      I Exit;
    ]

let maps () =
  [|
    Bpf_map.create Bpf_map.Hash_map ~key_size:4 ~value_size:4
      ~max_entries:1024;
  |]

let create engine =
  let maps = maps () in
  match Ebpf.load ~maps (program ()) with
  | Ok program -> { xdp = Xdp.create engine ~program ~maps; map = maps.(0) }
  | Error v ->
      invalid_arg ("Ext_firewall: " ^ Verifier.violation_to_string v)

let xdp t = t.xdp
let install t dp = Xdp.install t.xdp dp

let ip_key ip =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int ip);
  b

let block t ~ip =
  match Bpf_map.update t.map ~key:(ip_key ip) ~value:(Bytes.make 4 '\001') with
  | Ok () -> ()
  | Error e -> invalid_arg ("Ext_firewall.block: " ^ e)

let unblock t ~ip = ignore (Bpf_map.delete t.map ~key:(ip_key ip))
let blocked t = Bpf_map.length t.map
let dropped t = Xdp.dropped t.xdp
