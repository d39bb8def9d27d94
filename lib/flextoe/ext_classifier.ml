open Bpf_insn

let classes = 8

let program () =
  assemble
    [
      I (Ldx (W64, 6, 1, 0));
      I (Ldx (W64, 7, 1, 8));
      I (Alu64 (Mov, 2, Reg 6));
      I (Alu64 (Add, 2, Imm 38));
      Jl (Jgt, 2, Reg 7, "pass");  (* too short to classify *)
      (* key = raw dst-port bytes at offset 36 *)
      I (Ldx (W16, 3, 6, Tcp.Wire.off_tcp_dport));
      I (Stx (W16, 10, -4, 3));
      I (Alu64 (Mov, 1, Imm 0));
      I (Alu64 (Mov, 2, Reg 10));
      I (Alu64 (Add, 2, Imm (-4)));
      I (Call helper_map_lookup);
      (* r8 = class id (0 if unclassified) *)
      I (Alu64 (Mov, 8, Imm 0));
      Jl (Jeq, 0, Imm 0, "count");
      I (Ldx (W32, 8, 0, 0));
      L "count";
      (* counter = lookup(map 1, class); *counter += 1, in place *)
      I (Stx (W32, 10, -8, 8));
      I (Alu64 (Mov, 1, Imm 1));
      I (Alu64 (Mov, 2, Reg 10));
      I (Alu64 (Add, 2, Imm (-8)));
      I (Call helper_map_lookup);
      Jl (Jeq, 0, Imm 0, "pass");
      I (Ldx (W64, 3, 0, 0));
      I (Alu64 (Add, 3, Imm 1));
      I (Stx (W64, 0, 0, 3));
      L "pass";
      I (Alu64 (Mov, 0, Imm xdp_pass));
      I Exit;
    ]

type t = { xdp : Xdp.t; port_map : Bpf_map.t; counters : Bpf_map.t }

(* Map 0: dst port (2B, network order) -> class id (u32 LE).
   Map 1: array of per-class u64 packet counters. *)
let maps () =
  [|
    Bpf_map.create Bpf_map.Hash_map ~key_size:2 ~value_size:4
      ~max_entries:256;
    Bpf_map.create Bpf_map.Array_map ~key_size:4 ~value_size:8
      ~max_entries:classes;
  |]

let create engine =
  let maps = maps () in
  match Ebpf.load ~maps (program ()) with
  | Ok program ->
      { xdp = Xdp.create engine ~program ~maps; port_map = maps.(0);
        counters = maps.(1) }
  | Error v ->
      invalid_arg ("Ext_classifier: " ^ Verifier.violation_to_string v)

let xdp t = t.xdp
let install t dp = Xdp.install t.xdp dp

let port_key port =
  let b = Bytes.create 2 in
  Bytes.set_uint16_be b 0 port;
  b

let u32_le v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  b

let classify t ~port ~cls =
  if cls < 0 || cls >= classes then
    invalid_arg "Ext_classifier.classify: class out of range";
  match Bpf_map.update t.port_map ~key:(port_key port) ~value:(u32_le cls)
  with
  | Ok () -> ()
  | Error e -> invalid_arg ("Ext_classifier.classify: " ^ e)

let declassify t ~port = ignore (Bpf_map.delete t.port_map ~key:(port_key port))

let class_of_port t ~port =
  match Bpf_map.lookup t.port_map ~key:(port_key port) with
  | Some v -> Char.code (Bytes.get v 0)
  | None -> 0

let count t ~cls =
  match Bpf_map.lookup t.counters ~key:(u32_le cls) with
  | Some v -> Int64.to_int (Bytes.get_int64_le v 0)
  | None -> 0
