(* eBPF subsystem tests: instruction codec, VM semantics, maps, and
   the shipped XDP programs. *)

module I = Flextoe.Bpf_insn
module E = Flextoe.Ebpf
module V = Flextoe.Verifier
module Map = Flextoe.Bpf_map

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let load insns =
  match E.load insns with
  | Ok p -> p
  | Error v -> Alcotest.failf "load failed: %s" (V.violation_to_string v)

(* For tests of the VM's *dynamic* guards (runtime bounds faults, the
   instruction budget) whose programs the static verifier refuses. *)
let load_unverified insns =
  match E.load_unverified insns with
  | Ok p -> p
  | Error v ->
      Alcotest.failf "load_unverified failed: %s" (V.violation_to_string v)

let run ?(maps = [||]) ?(packet = Bytes.make 64 '\000') insns =
  E.run (load insns) ~maps ~now_ns:0L ~packet

(* --- Assembler ---------------------------------------------------------- *)

let test_assembler_labels () =
  (* Conditional so both edges stay CFG-reachable (the verifier
     rejects statically unreachable instructions). *)
  let prog =
    I.assemble
      [
        I.I (I.Alu64 (I.Mov, 0, I.Imm 1));
        I.Jl (I.Jne, 0, I.Imm 99, "end");
        I.I (I.Alu64 (I.Mov, 0, I.Imm 99));
        I.L "end";
        I.I I.Exit;
      ]
  in
  check_int "label resolved" 1 (run (Array.to_list prog |> Array.of_list)).E.ret

let test_assembler_unknown_label () =
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Bpf_insn.assemble: unknown label nowhere") (fun () ->
      ignore (I.assemble [ I.Jal "nowhere"; I.I I.Exit ]))

(* --- ALU semantics --------------------------------------------------------- *)

let alu_prog op dst_v src_v =
  [|
    I.Ld_imm64 (1, dst_v);
    I.Ld_imm64 (2, src_v);
    I.Alu64 (op, 1, I.Reg 2);
    I.Alu64 (I.Mov, 0, I.Reg 1);
    I.Exit;
  |]

let test_alu64_add_wraps () =
  let o = run (alu_prog I.Add 0x7FFFFFFFFFFFFFFFL 1L) in
  (* Exit truncates r0 to 32 bits per the XDP return convention. *)
  check_int "wrapped low bits" 0 o.E.ret

let test_alu_div_by_zero_is_zero () =
  let o = run (alu_prog I.Div 100L 0L) in
  check_int "div by zero yields 0" 0 o.E.ret

let test_alu32_truncates () =
  let o =
    run
      [|
        I.Ld_imm64 (1, 0x1_0000_0005L);
        I.Alu32 (I.Add, 1, I.Imm 1);
        I.Alu64 (I.Mov, 0, I.Reg 1);
        I.Exit;
      |]
  in
  check_int "upper bits cleared" 6 o.E.ret

let test_endian_be16 () =
  let o =
    run
      [|
        I.Ld_imm64 (0, 0x1234L);
        I.Endian_be (0, 16);
        I.Exit;
      |]
  in
  check_int "byte swapped" 0x3412 o.E.ret

let test_endian_involutive () =
  let o =
    run
      [|
        I.Ld_imm64 (0, 0xDEADBEEFL);
        I.Endian_be (0, 32);
        I.Endian_be (0, 32);
        I.Exit;
      |]
  in
  check_int "double swap is identity" 0xDEADBEEF o.E.ret

let test_jumps_signed_unsigned () =
  (* -1 unsigned-greater-than 1, but not signed-greater-than. *)
  let prog cond =
    [|
      I.Ld_imm64 (1, -1L);
      I.Jmp (cond, 1, I.Imm 1, 2);
      I.Alu64 (I.Mov, 0, I.Imm 0);
      I.Exit;
      I.Alu64 (I.Mov, 0, I.Imm 1);
      I.Exit;
    |]
  in
  check_int "unsigned: taken" 1 (run (prog I.Jgt)).E.ret;
  check_int "signed: not taken" 0 (run (prog I.Jsgt)).E.ret

(* --- Memory ------------------------------------------------------------------ *)

let test_stack_store_load () =
  let o =
    run
      [|
        I.St_imm (I.W32, 10, -8, 4242);
        I.Ldx (I.W32, 0, 10, -8);
        I.Exit;
      |]
  in
  check_int "stack roundtrip" 4242 o.E.ret

let test_packet_access_bounds () =
  (* Read past data_end faults -> XDP_ABORTED (0). The static
     verifier refuses this program (no bounds guard), which is
     exactly why the VM's dynamic check exists as a second line. *)
  let o =
    E.run
      (load_unverified
         [|
           I.Ldx (I.W64, 6, 1, 0);
           I.Ldx (I.W32, 0, 6, 100);
           I.Exit;
         |])
      ~maps:[||] ~now_ns:0L ~packet:(Bytes.make 50 'x')
  in
  check_int "fault aborts" I.xdp_aborted o.E.ret

let test_packet_store_visible () =
  (* Store is behind a length guard so the program verifies. *)
  let o =
    run ~packet:(Bytes.make 64 '\000')
      [|
        I.Ldx (I.W64, 6, 1, 0);
        I.Ldx (I.W64, 7, 1, 8);
        I.Alu64 (I.Mov, 2, I.Reg 6);
        I.Alu64 (I.Add, 2, I.Imm 6);
        I.Alu64 (I.Mov, 0, I.Imm 3);
        I.Jmp (I.Jgt, 2, I.Reg 7, 1);
        I.St_imm (I.W8, 6, 5, 0x7F);
        I.Exit;
      |]
  in
  check_int "store visible in output packet" 0x7F
    (Char.code (Bytes.get o.E.packet 5))

let test_unguarded_packet_store_rejected () =
  (* The same store without the guard must be refused statically. *)
  match
    E.load
      [|
        I.Ldx (I.W64, 6, 1, 0);
        I.St_imm (I.W8, 6, 5, 0x7F);
        I.Alu64 (I.Mov, 0, I.Imm 3);
        I.Exit;
      |]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unguarded packet store accepted"

let test_runaway_loop_cut_off () =
  (* The verifier statically rejects this loop; the VM's instruction
     budget is the belt-and-braces dynamic cut-off. *)
  let o =
    E.run
      (load_unverified [| I.Ja (-1); I.Exit |])
      ~maps:[||] ~now_ns:0L ~packet:(Bytes.make 64 '\000')
  in
  check_int "aborted" I.xdp_aborted o.E.ret;
  check_int "budget consumed" 65536 o.E.insns_executed

(* --- Verifier-lite --------------------------------------------------------------- *)

let reject insns msg =
  match E.load insns with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail msg

let test_verifier_rejections () =
  reject [||] "empty accepted";
  reject [| I.Alu64 (I.Mov, 0, I.Imm 0) |] "no exit accepted";
  reject [| I.Ja (-1) |] "exit-free loop accepted";
  reject [| I.Alu64 (I.Mov, 10, I.Imm 0); I.Exit |] "write to r10 accepted";
  reject [| I.Ja 5; I.Exit |] "oob jump accepted";
  reject [| I.Call 9999; I.Exit |] "unknown helper accepted";
  reject [| I.Ldx (I.W32, 0, 14, 0); I.Exit |] "bad register accepted"

let reject_syntactic insns msg =
  match E.load_unverified insns with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail msg

let test_load_checks_map_shapes () =
  (* A well-formed lookup (initialized 4-byte stack key, null-checked
     result): it verifies without map metadata, against a map of its
     key size, and not against an empty map set. *)
  let lookup =
    [|
      I.St_imm (I.W32, 10, -4, 0);
      I.Alu64 (I.Mov, 1, I.Imm 0);
      I.Alu64 (I.Mov, 2, I.Reg 10);
      I.Alu64 (I.Add, 2, I.Imm (-4));
      I.Call I.helper_map_lookup;
      I.Alu64 (I.Mov, 0, I.Imm I.xdp_pass);
      I.Exit;
    |]
  in
  let map = Map.create Map.Hash_map ~key_size:4 ~value_size:4 ~max_entries:4 in
  check_bool "loads without shapes" true (Result.is_ok (E.load lookup));
  check_bool "loads against its map" true
    (Result.is_ok (E.load ~maps:[| map |] lookup));
  (match E.load ~maps:[||] lookup with
  | Error { V.reason = V.Bad_map_id { n_maps = 0; _ }; pc = 4; _ } -> ()
  | Error v ->
      Alcotest.failf "wrong diagnostic: %s" (V.violation_to_string v)
  | Ok _ -> Alcotest.fail "map lookup accepted with no maps");
  (* A map whose key is wider than the 4-byte buffer at fp-4. *)
  let wide = Map.create Map.Hash_map ~key_size:8 ~value_size:4 ~max_entries:4 in
  match E.load ~maps:[| wide |] lookup with
  | Error { V.reason = V.Stack_out_of_bounds { off = -4; width = 8 }; _ } -> ()
  | Error v ->
      Alcotest.failf "wrong diagnostic: %s" (V.violation_to_string v)
  | Ok _ -> Alcotest.fail "8-byte key read from a 4-byte buffer accepted"

let test_validate_edge_regressions () =
  (* Regressions for the syntactic pass's CFG edge handling: control
     must never be able to run off the end of the instruction array,
     even when an [Exit] exists somewhere else in the program. *)
  reject_syntactic
    [| I.Ja 1; I.Exit; I.Alu64 (I.Mov, 0, I.Imm 0) |]
    "fallthrough off end accepted (Exit present elsewhere)";
  reject_syntactic
    [| I.Jmp (I.Jeq, 0, I.Imm 0, 0) |]
    "conditional at last insn can fall through off end";
  reject_syntactic
    [| I.Jmp (I.Jeq, 0, I.Imm 0, 1); I.Exit |]
    "jump target one past the end accepted";
  reject_syntactic [| I.Ja (-2); I.Exit |] "jump before start accepted";
  (* No Exit anywhere: in range and never off the end, but it can
     never return. *)
  (match E.load_unverified [| I.Ja (-1) |] with
  | Error { V.reason = V.No_exit; _ } -> ()
  | Error v ->
      Alcotest.failf "wrong diagnostic: %s" (V.violation_to_string v)
  | Ok _ -> Alcotest.fail "exit-free program accepted");
  (* A trailing Exit or unconditional jump cannot fall through. *)
  (match E.load_unverified [| I.Alu64 (I.Mov, 0, I.Imm 0); I.Exit |] with
  | Ok _ -> ()
  | Error v ->
      Alcotest.failf "valid program rejected: %s" (V.violation_to_string v));
  match
    E.load_unverified [| I.Jmp (I.Jeq, 0, I.Imm 0, 1); I.Exit; I.Ja (-3) |]
  with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "trailing Ja rejected: %s" (V.violation_to_string v)

(* --- Wire codec -------------------------------------------------------------------- *)

let insn_gen =
  let open QCheck.Gen in
  let reg = int_range 0 9 in
  let src = oneof [ map (fun r -> I.Reg r) reg;
                    map (fun v -> I.Imm v) (int_range (-1000) 1000) ] in
  let alu_op =
    oneofl [ I.Add; I.Sub; I.Mul; I.Div; I.Or; I.And; I.Lsh; I.Rsh;
             I.Neg; I.Mod; I.Xor; I.Mov; I.Arsh ]
  in
  let size = oneofl [ I.W8; I.W16; I.W32; I.W64 ] in
  oneof
    [
      map3 (fun op d s -> I.Alu64 (op, d, s)) alu_op reg src;
      map3 (fun op d s -> I.Alu32 (op, d, s)) alu_op reg src;
      map2 (fun d bits -> I.Endian_be (d, bits)) reg (oneofl [ 16; 32; 64 ]);
      map2 (fun d v -> I.Ld_imm64 (d, Int64.of_int v)) reg int;
      map3 (fun sz (d, s) off -> I.Ldx (sz, d, s, off)) size
        (pair reg reg) (int_range (-256) 256);
      map3 (fun sz d (off, v) -> I.St_imm (sz, d, off, v)) size reg
        (pair (int_range (-256) 256) (int_range (-1000) 1000));
      map3 (fun sz (d, s) off -> I.Stx (sz, d, off, s)) size (pair reg reg)
        (int_range (-256) 256);
      return (I.Call I.helper_ktime);
    ]

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"bpf codec: decode (encode p) = p" ~count:300
    QCheck.(make Gen.(list_size (int_range 1 40) insn_gen))
    (fun body ->
      (* Straight-line body followed by exit; add a jump over one insn
         to exercise offset translation around lddw. *)
      let prog =
        Array.of_list
          ((I.Ja (List.length body) :: body) @ [ I.Exit ])
      in
      match I.decode (I.encode prog) with
      | Ok p -> p = prog
      | Error _ -> false)

let test_codec_lddw_jump_translation () =
  (* A jump across an Ld_imm64 must survive the two-slot encoding.
     The jump is conditional (never taken at run time) so the lddw
     stays CFG-reachable and the program verifies. *)
  let prog =
    [|
      I.Alu64 (I.Mov, 0, I.Imm 0);
      I.Jmp (I.Jeq, 0, I.Imm 1, 1);  (* jumps across the lddw slot pair *)
      I.Ld_imm64 (3, 0x1122334455667788L);
      I.Alu64 (I.Mov, 0, I.Imm 7);
      I.Exit;
    |]
  in
  (match I.decode (I.encode prog) with
  | Ok p -> check_bool "roundtrip with lddw" true (p = prog)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  check_int "still runs" 7 (run prog).E.ret

(* --- Maps ---------------------------------------------------------------------------- *)

let test_hash_map_basics () =
  let m = Map.create Map.Hash_map ~key_size:4 ~value_size:8 ~max_entries:2 in
  let k1 = Bytes.of_string "aaaa" and k2 = Bytes.of_string "bbbb" in
  let v = Bytes.make 8 'v' in
  check_bool "update" true (Map.update m ~key:k1 ~value:v = Ok ());
  check_bool "lookup" true (Map.lookup m ~key:k1 = Some v);
  check_bool "update2" true (Map.update m ~key:k2 ~value:v = Ok ());
  check_bool "full" true
    (Map.update m ~key:(Bytes.of_string "cccc") ~value:v = Error "map full");
  check_bool "delete" true (Map.delete m ~key:k1);
  check_bool "reuse slot" true
    (Map.update m ~key:(Bytes.of_string "cccc") ~value:v = Ok ());
  check_bool "gone" true (Map.lookup m ~key:k1 = None)

let test_array_map () =
  let m = Map.create Map.Array_map ~key_size:4 ~value_size:4 ~max_entries:4 in
  let key i =
    let b = Bytes.make 4 '\000' in
    Bytes.set b 0 (Char.chr i);
    b
  in
  check_bool "in range" true
    (Map.update m ~key:(key 2) ~value:(Bytes.of_string "abcd") = Ok ());
  check_bool "read back" true
    (Map.lookup m ~key:(key 2) = Some (Bytes.of_string "abcd"));
  check_bool "oob" true
    (Map.update m ~key:(key 9) ~value:(Bytes.make 4 'x')
    = Error "index out of bounds");
  check_bool "no delete" false (Map.delete m ~key:(key 2))

let test_vm_map_helpers () =
  let m = Map.create Map.Hash_map ~key_size:4 ~value_size:8 ~max_entries:8 in
  (* Program: key <- 0x11223344 (stack), value lookup; if miss, insert
     value 9 and return 1; if hit, return value. *)
  let prog =
    I.assemble
      [
        I.I (I.St_imm (I.W32, 10, -4, 0x1122));
        I.I (I.Alu64 (I.Mov, 1, I.Imm 0));
        I.I (I.Alu64 (I.Mov, 2, I.Reg 10));
        I.I (I.Alu64 (I.Add, 2, I.Imm (-4)));
        I.I (I.Call I.helper_map_lookup);
        I.Jl (I.Jne, 0, I.Imm 0, "hit");
        (* miss: store value 9 on stack, update, return 1 *)
        I.I (I.St_imm (I.W64, 10, -16, 9));
        I.I (I.Alu64 (I.Mov, 1, I.Imm 0));
        I.I (I.Alu64 (I.Mov, 2, I.Reg 10));
        I.I (I.Alu64 (I.Add, 2, I.Imm (-4)));
        I.I (I.Alu64 (I.Mov, 3, I.Reg 10));
        I.I (I.Alu64 (I.Add, 3, I.Imm (-16)));
        I.I (I.Call I.helper_map_update);
        I.I (I.Alu64 (I.Mov, 0, I.Imm 1));
        I.I I.Exit;
        I.L "hit";
        I.I (I.Ldx (I.W64, 0, 0, 0));
        I.I I.Exit;
      ]
  in
  let p = load prog in
  let o1 = E.run p ~maps:[| m |] ~now_ns:0L ~packet:(Bytes.make 64 ' ') in
  check_int "first run misses" 1 o1.E.ret;
  let o2 = E.run p ~maps:[| m |] ~now_ns:0L ~packet:(Bytes.make 64 ' ') in
  check_int "second run hits stored value" 9 o2.E.ret

(* --- Shipped XDP programs --------------------------------------------------------------- *)

let mk_frame ?(flags = Tcp.Segment.flags_ack) ?(src_ip = 0x0A000001)
    ?(payload = Bytes.empty) () =
  let seg =
    Tcp.Segment.make ~flags ~payload ~src_ip ~dst_ip:0x0A000002 ~src_port:999
      ~dst_port:80 ~seq:1 ~ack_seq:1 ()
  in
  Tcp.Segment.make_frame ~src_mac:1 ~dst_mac:2 seg

let test_null_program_passes () =
  let e = Sim.Engine.create () in
  let x = Flextoe.Xdp.create e ~program:(Flextoe.Xdp.null_program ()) ~maps:[||] in
  let hook = Flextoe.Xdp.hook x in
  match hook.Flextoe.Datapath.xdp_run (mk_frame ()) with
  | _, Flextoe.Datapath.Xdp_pass _ -> check_int "runs" 1 (Flextoe.Xdp.runs x)
  | _ -> Alcotest.fail "null program must pass"

let test_firewall_program () =
  let e = Sim.Engine.create () in
  let fw = Flextoe.Ext_firewall.create e in
  let hook = Flextoe.Xdp.hook (Flextoe.Ext_firewall.xdp fw) in
  (match hook.Flextoe.Datapath.xdp_run (mk_frame ~src_ip:0x0A000001 ()) with
  | _, Flextoe.Datapath.Xdp_pass _ -> ()
  | _ -> Alcotest.fail "unblocked should pass");
  Flextoe.Ext_firewall.block fw ~ip:0x0A000001;
  (match hook.Flextoe.Datapath.xdp_run (mk_frame ~src_ip:0x0A000001 ()) with
  | _, Flextoe.Datapath.Xdp_drop -> ()
  | _ -> Alcotest.fail "blocked should drop");
  (match hook.Flextoe.Datapath.xdp_run (mk_frame ~src_ip:0x0A000099 ()) with
  | _, Flextoe.Datapath.Xdp_pass _ -> ()
  | _ -> Alcotest.fail "other hosts unaffected");
  Flextoe.Ext_firewall.unblock fw ~ip:0x0A000001;
  match hook.Flextoe.Datapath.xdp_run (mk_frame ~src_ip:0x0A000001 ()) with
  | _, Flextoe.Datapath.Xdp_pass _ -> ()
  | _ -> Alcotest.fail "unblock restores"

let test_vlan_strip_program () =
  let e = Sim.Engine.create () in
  let vs = Flextoe.Ext_vlan.create e in
  let hook = Flextoe.Xdp.hook (Flextoe.Ext_vlan.xdp vs) in
  let seg =
    Tcp.Segment.make ~payload:(Bytes.of_string "data") ~src_ip:1 ~dst_ip:2
      ~src_port:3 ~dst_port:4 ~seq:5 ~ack_seq:6 ()
  in
  let tagged =
    Tcp.Segment.make_frame ~vlan:(Some 42) ~src_mac:0xAA ~dst_mac:0xBB seg
  in
  (match hook.Flextoe.Datapath.xdp_run tagged with
  | _, Flextoe.Datapath.Xdp_pass f ->
      check_bool "tag stripped" true (f.Tcp.Segment.vlan = None);
      check_int "macs preserved" 0xAA f.Tcp.Segment.src_mac;
      Alcotest.(check string) "payload preserved" "data"
        (Bytes.to_string f.Tcp.Segment.seg.Tcp.Segment.payload)
  | _ -> Alcotest.fail "tagged frame should pass stripped");
  (* Untagged frames pass unchanged. *)
  let untagged = Tcp.Segment.make_frame ~src_mac:0xAA ~dst_mac:0xBB seg in
  match hook.Flextoe.Datapath.xdp_run untagged with
  | _, Flextoe.Datapath.Xdp_pass f ->
      check_bool "still untagged" true (f.Tcp.Segment.vlan = None)
  | _ -> Alcotest.fail "untagged should pass"

let test_splice_program_patches () =
  let e = Sim.Engine.create () in
  let sp = Flextoe.Ext_splice.create e in
  Flextoe.Ext_splice.add sp ~src_ip:0x0A000001 ~dst_ip:0x0A000002
    ~src_port:999 ~dst_port:80
    {
      Flextoe.Ext_splice.remote_mac = 0x777;
      remote_ip = 0x0A000003;
      local_port = 5555;
      remote_port = 9;
      seq_delta = 1000;
      ack_delta = 0xFFFFFFFF;  (* -1 mod 2^32 *)
    };
  let hook = Flextoe.Xdp.hook (Flextoe.Ext_splice.xdp sp) in
  match
    hook.Flextoe.Datapath.xdp_run (mk_frame ~payload:(Bytes.of_string "req") ())
  with
  | _, Flextoe.Datapath.Xdp_tx f ->
      let s = f.Tcp.Segment.seg in
      check_int "dst mac" 0x777 f.Tcp.Segment.dst_mac;
      check_int "src ip swapped" 0x0A000002 s.Tcp.Segment.src_ip;
      check_int "dst ip" 0x0A000003 s.Tcp.Segment.dst_ip;
      check_int "sport" 5555 s.Tcp.Segment.src_port;
      check_int "dport" 9 s.Tcp.Segment.dst_port;
      check_int "seq shifted" 1001 s.Tcp.Segment.seq;
      check_int "ack shifted" 0 s.Tcp.Segment.ack_seq;
      Alcotest.(check string) "payload intact" "req"
        (Bytes.to_string s.Tcp.Segment.payload)
  | _ -> Alcotest.fail "entry hit should TX"

let test_splice_ctl_flags_teardown () =
  let e = Sim.Engine.create () in
  let sp = Flextoe.Ext_splice.create e in
  Flextoe.Ext_splice.add sp ~src_ip:0x0A000001 ~dst_ip:0x0A000002
    ~src_port:999 ~dst_port:80
    {
      Flextoe.Ext_splice.remote_mac = 1; remote_ip = 1; local_port = 1;
      remote_port = 1; seq_delta = 0; ack_delta = 0;
    };
  check_int "one entry" 1 (Flextoe.Ext_splice.entries sp);
  let hook = Flextoe.Xdp.hook (Flextoe.Ext_splice.xdp sp) in
  let fin =
    mk_frame ~flags:{ Tcp.Segment.flags_ack with Tcp.Segment.fin = true } ()
  in
  (match hook.Flextoe.Datapath.xdp_run fin with
  | _, Flextoe.Datapath.Xdp_redirect _ -> ()
  | _ -> Alcotest.fail "FIN should redirect to the control plane");
  check_int "entry removed atomically" 0 (Flextoe.Ext_splice.entries sp)

let test_splice_miss_passes () =
  let e = Sim.Engine.create () in
  let sp = Flextoe.Ext_splice.create e in
  let hook = Flextoe.Xdp.hook (Flextoe.Ext_splice.xdp sp) in
  match hook.Flextoe.Datapath.xdp_run (mk_frame ()) with
  | _, Flextoe.Datapath.Xdp_pass _ -> ()
  | _ -> Alcotest.fail "miss should pass to the data path"

let suite =
  [
    Alcotest.test_case "assembler labels" `Quick test_assembler_labels;
    Alcotest.test_case "assembler unknown label" `Quick
      test_assembler_unknown_label;
    Alcotest.test_case "alu64 wraps" `Quick test_alu64_add_wraps;
    Alcotest.test_case "div by zero" `Quick test_alu_div_by_zero_is_zero;
    Alcotest.test_case "alu32 truncates" `Quick test_alu32_truncates;
    Alcotest.test_case "endian be16" `Quick test_endian_be16;
    Alcotest.test_case "endian involutive" `Quick test_endian_involutive;
    Alcotest.test_case "signed vs unsigned jumps" `Quick
      test_jumps_signed_unsigned;
    Alcotest.test_case "stack memory" `Quick test_stack_store_load;
    Alcotest.test_case "packet bounds fault" `Quick test_packet_access_bounds;
    Alcotest.test_case "packet stores visible" `Quick
      test_packet_store_visible;
    Alcotest.test_case "runaway loop cut off" `Quick
      test_runaway_loop_cut_off;
    Alcotest.test_case "verifier rejections" `Quick test_verifier_rejections;
    Alcotest.test_case "load checks map shapes" `Quick
      test_load_checks_map_shapes;
    Alcotest.test_case "validate edge regressions" `Quick
      test_validate_edge_regressions;
    Alcotest.test_case "unguarded packet store rejected" `Quick
      test_unguarded_packet_store_rejected;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "codec lddw jump translation" `Quick
      test_codec_lddw_jump_translation;
    Alcotest.test_case "hash map" `Quick test_hash_map_basics;
    Alcotest.test_case "array map" `Quick test_array_map;
    Alcotest.test_case "vm map helpers" `Quick test_vm_map_helpers;
    Alcotest.test_case "null XDP program" `Quick test_null_program_passes;
    Alcotest.test_case "firewall program" `Quick test_firewall_program;
    Alcotest.test_case "vlan strip program" `Quick test_vlan_strip_program;
    Alcotest.test_case "splice program header patching" `Quick
      test_splice_program_patches;
    Alcotest.test_case "splice teardown on control flags" `Quick
      test_splice_ctl_flags_teardown;
    Alcotest.test_case "splice miss passes" `Quick test_splice_miss_passes;
  ]

let test_classifier_program () =
  let e = Sim.Engine.create () in
  let cl = Flextoe.Ext_classifier.create e in
  Flextoe.Ext_classifier.classify cl ~port:80 ~cls:3;
  Flextoe.Ext_classifier.classify cl ~port:443 ~cls:5;
  check_int "port map" 3 (Flextoe.Ext_classifier.class_of_port cl ~port:80);
  let hook = Flextoe.Xdp.hook (Flextoe.Ext_classifier.xdp cl) in
  let send ?(dst_port = 80) () =
    let seg =
      Tcp.Segment.make ~flags:Tcp.Segment.flags_ack ~src_ip:1 ~dst_ip:2
        ~src_port:999 ~dst_port ~seq:1 ~ack_seq:1 ()
    in
    match
      hook.Flextoe.Datapath.xdp_run
        (Tcp.Segment.make_frame ~src_mac:1 ~dst_mac:2 seg)
    with
    | _, Flextoe.Datapath.Xdp_pass _ -> ()
    | _ -> Alcotest.fail "classifier must pass traffic through"
  in
  send ();
  send ();
  send ~dst_port:443 ();
  send ~dst_port:12345 ();  (* unclassified -> class 0 *)
  check_int "class 3 counted" 2 (Flextoe.Ext_classifier.count cl ~cls:3);
  check_int "class 5 counted" 1 (Flextoe.Ext_classifier.count cl ~cls:5);
  check_int "default class counted" 1 (Flextoe.Ext_classifier.count cl ~cls:0);
  Flextoe.Ext_classifier.declassify cl ~port:80;
  send ();
  check_int "declassified goes to 0" 2 (Flextoe.Ext_classifier.count cl ~cls:0)

let classifier_suite =
  [ Alcotest.test_case "flow classifier counts per class" `Quick
      test_classifier_program ]
