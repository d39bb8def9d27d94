(* Abstract-interpretation verifier tests: a negative corpus (each
   program rejected with the expected structured diagnostic), boundary
   acceptance cases, and the generated pcap filter programs. *)

module I = Flextoe.Bpf_insn
module V = Flextoe.Verifier
module E = Flextoe.Ebpf

let check_int = Alcotest.(check int)

(* One map of key 4 / value 8 — the shape the counter-style corpus
   programs use as map 0. *)
let maps48 = [| { V.key_size = 4; value_size = 8 } |]

let reject ?maps ?pc insns ~name ~expect =
  match V.verify ?maps insns with
  | Ok _ -> Alcotest.failf "%s: accepted, expected rejection" name
  | Error v ->
      (match pc with
      | Some pc -> check_int (name ^ ": pc") pc v.V.pc
      | None -> ());
      if not (expect v.V.reason) then
        Alcotest.failf "%s: wrong diagnostic: %s" name
          (V.violation_to_string v)

let accept ?maps insns ~name =
  match V.verify ?maps insns with
  | Ok _ -> ()
  | Error v ->
      Alcotest.failf "%s: rejected: %s" name (V.violation_to_string v)

(* --- Negative corpus ----------------------------------------------- *)

let test_uninitialized_register () =
  reject ~pc:0 ~name:"uninit reg read"
    [| I.Alu64 (I.Mov, 0, I.Reg 3); I.Exit |]
    ~expect:(function V.Uninitialized_register 3 -> true | _ -> false)

let test_pkt_access_without_guard () =
  reject ~pc:1 ~name:"unguarded pkt read"
    [| I.Ldx (I.W64, 6, 1, 0); I.Ldx (I.W32, 0, 6, 0); I.Exit |]
    ~expect:(function
      | V.Pkt_out_of_bounds { off = 0; width = 4; bound = 0 } -> true
      | _ -> false)

let test_bad_helper_arg_type () =
  (* r2 must be a pointer to an initialized key, not a scalar. *)
  reject ~maps:maps48 ~pc:2 ~name:"scalar as key ptr"
    [|
      I.Alu64 (I.Mov, 1, I.Imm 0);
      I.Alu64 (I.Mov, 2, I.Imm 5);
      I.Call I.helper_map_lookup;
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Exit;
    |]
    ~expect:(function
      | V.Bad_helper_arg { arg = 2; _ } -> true
      | _ -> false)

let test_uninitialized_key_buffer () =
  (* Pointer of the right shape, but the 4 key bytes were never
     written. *)
  reject ~maps:maps48 ~pc:3 ~name:"uninit key buffer"
    [|
      I.Alu64 (I.Mov, 1, I.Imm 0);
      I.Alu64 (I.Mov, 2, I.Reg 10);
      I.Alu64 (I.Add, 2, I.Imm (-4));
      I.Call I.helper_map_lookup;
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Exit;
    |]
    ~expect:(function V.Uninitialized_stack _ -> true | _ -> false)

let test_unbounded_loop () =
  (* ktime's result is unknown, so the branch can loop forever with
     no state change: re-entering pc 0 with a subsumed state. *)
  reject ~name:"unbounded loop"
    [|
      I.Call I.helper_ktime;
      I.Jmp (I.Jne, 0, I.Imm 0, -2);
      I.Exit;
    |]
    ~expect:(function V.Unbounded_loop _ -> true | _ -> false)

let test_no_exit () =
  (* Every edge is in range and nothing falls off the end, yet the
     program can never return. *)
  reject ~pc:0 ~name:"no exit" [| I.Ja (-1) |]
    ~expect:(function V.No_exit -> true | _ -> false)

let test_write_through_ctx () =
  reject ~pc:0 ~name:"ctx write"
    [| I.St_imm (I.W32, 1, 0, 7); I.Alu64 (I.Mov, 0, I.Imm 2); I.Exit |]
    ~expect:(function V.Write_to_ctx -> true | _ -> false)

let test_unreachable_code () =
  reject ~pc:2 ~name:"unreachable insn"
    [|
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Ja 1;
      I.Alu64 (I.Mov, 0, I.Imm 1);
      I.Exit;
    |]
    ~expect:(function V.Unreachable_insn -> true | _ -> false)

let test_possibly_null_deref () =
  reject ~maps:maps48 ~pc:5 ~name:"missing null check"
    [|
      I.St_imm (I.W32, 10, -4, 0);
      I.Alu64 (I.Mov, 1, I.Imm 0);
      I.Alu64 (I.Mov, 2, I.Reg 10);
      I.Alu64 (I.Add, 2, I.Imm (-4));
      I.Call I.helper_map_lookup;
      I.Ldx (I.W64, 3, 0, 0);
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Exit;
    |]
    ~expect:(function V.Possibly_null_deref 0 -> true | _ -> false)

let test_pointer_return () =
  reject ~pc:1 ~name:"pointer in r0 at exit"
    [| I.Alu64 (I.Mov, 0, I.Reg 1); I.Exit |]
    ~expect:(function V.Pointer_return _ -> true | _ -> false)

let test_bad_map_id () =
  reject ~maps:maps48 ~pc:4 ~name:"map id out of range"
    [|
      I.St_imm (I.W32, 10, -4, 0);
      I.Alu64 (I.Mov, 1, I.Imm 7);
      I.Alu64 (I.Mov, 2, I.Reg 10);
      I.Alu64 (I.Add, 2, I.Imm (-4));
      I.Call I.helper_map_lookup;
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Exit;
    |]
    ~expect:(function V.Bad_map_id _ -> true | _ -> false)

let test_fallthrough_off_end () =
  reject ~name:"fallthrough off end"
    [| I.Alu64 (I.Mov, 0, I.Imm 2) |]
    ~expect:(function V.Fallthrough_off_end -> true | _ -> false)

let test_stack_out_of_bounds () =
  reject ~pc:0 ~name:"read above frame pointer"
    [| I.Ldx (I.W64, 3, 10, 0); I.Alu64 (I.Mov, 0, I.Imm 2); I.Exit |]
    ~expect:(function V.Stack_out_of_bounds _ -> true | _ -> false)

let test_pointer_arithmetic () =
  reject ~pc:1 ~name:"multiply a packet pointer"
    [|
      I.Ldx (I.W64, 6, 1, 0);
      I.Alu64 (I.Mul, 6, I.Imm 2);
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Exit;
    |]
    ~expect:(function V.Pointer_arithmetic _ -> true | _ -> false)

let test_pointer_store_forbidden () =
  (* Spilling a pointer into packet memory would leak it. *)
  reject ~name:"pointer store into packet"
    [|
      I.Ldx (I.W64, 6, 1, 0);
      I.Ldx (I.W64, 7, 1, 8);
      I.Alu64 (I.Mov, 2, I.Reg 6);
      I.Alu64 (I.Add, 2, I.Imm 8);
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Jmp (I.Jgt, 2, I.Reg 7, 1);
      I.Stx (I.W64, 6, 0, 6);
      I.Exit;
    |]
    ~expect:(function V.Pointer_store_forbidden _ -> true | _ -> false)

let test_adjust_head_invalidates () =
  (* After bpf_xdp_adjust_head the old data pointer is dead even
     though r6 is callee-saved. *)
  reject ~name:"stale pkt ptr after adjust_head"
    [|
      I.Ldx (I.W64, 6, 1, 0);
      I.Alu64 (I.Mov, 2, I.Imm 0);
      I.Call I.helper_adjust_head;
      I.Ldx (I.W32, 3, 6, 0);
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Exit;
    |]
    ~expect:(function
      | V.Uninitialized_register 6 | V.Pkt_out_of_bounds _ -> true
      | _ -> false)

(* --- Acceptance boundaries ----------------------------------------- *)

let guarded prologue_bound body =
  Array.append
    [|
      I.Ldx (I.W64, 6, 1, 0);
      I.Ldx (I.W64, 7, 1, 8);
      I.Alu64 (I.Mov, 2, I.Reg 6);
      I.Alu64 (I.Add, 2, I.Imm prologue_bound);
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Jmp (I.Jgt, 2, I.Reg 7, Array.length body);
    |]
    (Array.append body [| I.Exit |])

let test_guard_boundary () =
  (* Guard proves exactly 34 bytes: a 2-byte read ending at 34 is
     fine, a 4-byte read crossing it is not. *)
  accept ~name:"read inside proven bound"
    (guarded 34 [| I.Ldx (I.W16, 3, 6, 32) |]);
  reject ~name:"read crossing proven bound"
    (guarded 34 [| I.Ldx (I.W32, 3, 6, 32) |])
    ~expect:(function
      | V.Pkt_out_of_bounds { off = 32; width = 4; bound = 34 } -> true
      | _ -> false)

let test_bounded_loop_accepted () =
  accept ~name:"constant-bounded loop"
    [|
      I.Alu64 (I.Mov, 1, I.Imm 0);
      I.Alu64 (I.Add, 1, I.Imm 1);
      I.Jmp (I.Jlt, 1, I.Imm 10, -2);
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Exit;
    |]

let test_null_check_unlocks_deref () =
  accept ~maps:maps48 ~name:"deref after null check"
    [|
      I.St_imm (I.W32, 10, -4, 0);
      I.Alu64 (I.Mov, 1, I.Imm 0);
      I.Alu64 (I.Mov, 2, I.Reg 10);
      I.Alu64 (I.Add, 2, I.Imm (-4));
      I.Call I.helper_map_lookup;
      I.Alu64 (I.Mov, 3, I.Imm 0);
      I.Jmp (I.Jeq, 0, I.Imm 0, 1);
      I.Ldx (I.W64, 3, 0, 0);
      I.Alu64 (I.Mov, 0, I.Imm 2);
      I.Exit;
    |]

(* --- Generated programs -------------------------------------------- *)

let pcap_filters =
  let open Flextoe.Ext_pcap in
  [
    ("all", All);
    ("none", Not All);
    ("port", Port 80);
    ("src and syn", And (Src_host 0x0A000001, Tcp_flag `Syn));
    ("not port", Not (Port 22));
    ("host or port", Or (Host 0x0A000002, Port 443));
    ("const-folded and", And (All, Port 9));
    ("de morgan", Not (And (Port 7, Not (Tcp_flag `Ack))));
  ]

let test_pcap_programs_verify () =
  List.iter
    (fun (name, f) ->
      accept ~maps:maps48 ~name:("pcap " ^ name)
        (Flextoe.Ext_pcap.program_of_filter f))
    pcap_filters

let mk_frame ?(flags = Tcp.Segment.flags_ack) ?(src_ip = 0x0A000001)
    ?(dst_ip = 0x0A000002) ?(src_port = 999) ?(dst_port = 80) () =
  let seg =
    Tcp.Segment.make ~flags ~payload:Bytes.empty ~src_ip ~dst_ip ~src_port
      ~dst_port ~seq:1 ~ack_seq:1 ()
  in
  Tcp.Segment.make_frame ~src_mac:1 ~dst_mac:2 seg

let test_pcap_counting_matches_host_filter () =
  (* The compiled program and the host-side [matches] must agree. *)
  let frames =
    [
      mk_frame ();
      mk_frame ~src_ip:0x0A000002 ~dst_ip:0x0A000001 ~src_port:80
        ~dst_port:999 ();
      mk_frame
        ~flags:{ Tcp.Segment.flags_ack with Tcp.Segment.syn = true }
        ();
      mk_frame ~dst_port:443 ();
    ]
  in
  List.iter
    (fun (name, f) ->
      let map = Flextoe.Ext_pcap.counter_map () in
      let prog =
        match E.load_unverified (Flextoe.Ext_pcap.program_of_filter f) with
        | Ok p -> p
        | Error v ->
            Alcotest.failf "pcap %s: load: %s" name (V.violation_to_string v)
      in
      let expected = ref 0 in
      List.iter
        (fun frame ->
          if Flextoe.Ext_pcap.matches f frame then incr expected;
          ignore
            (E.run prog ~maps:[| map |] ~now_ns:0L
               ~packet:(Tcp.Wire.encode frame)))
        frames;
      check_int
        (Printf.sprintf "pcap %s: counter" name)
        !expected
        (Int64.to_int (Flextoe.Ext_pcap.match_count map)))
    pcap_filters

let test_xdp_attach_refuses_unproven_bound () =
  (* The acceptance-criteria program: reads past an unproven packet
     bound, so [Xdp.attach] must never install it. *)
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let node = Flextoe.create_node engine ~fabric ~ip:0x0A000001 () in
  let dp = Flextoe.datapath node in
  (match
     Flextoe.Xdp.attach engine
       ~insns:[| I.Ldx (I.W64, 6, 1, 0); I.Ldx (I.W32, 0, 6, 0); I.Exit |]
       ~maps:[||] dp
   with
  | Error { V.reason = V.Pkt_out_of_bounds _; _ } -> ()
  | Error v ->
      Alcotest.failf "attach: wrong diagnostic: %s" (V.violation_to_string v)
  | Ok _ -> Alcotest.fail "attach accepted an unproven packet read");
  (* And a proven program goes through. *)
  let map = Flextoe.Ext_pcap.counter_map () in
  match
    Flextoe.Xdp.attach engine ~insns:(Flextoe.Ext_pcap.program ())
      ~maps:[| map |] dp
  with
  | Ok _ -> ()
  | Error v ->
      Alcotest.failf "attach rejected a safe program: %s"
        (V.violation_to_string v)

let suite =
  [
    Alcotest.test_case "uninitialized register" `Quick
      test_uninitialized_register;
    Alcotest.test_case "pkt access without guard" `Quick
      test_pkt_access_without_guard;
    Alcotest.test_case "bad helper arg type" `Quick test_bad_helper_arg_type;
    Alcotest.test_case "uninitialized key buffer" `Quick
      test_uninitialized_key_buffer;
    Alcotest.test_case "unbounded loop" `Quick test_unbounded_loop;
    Alcotest.test_case "no exit" `Quick test_no_exit;
    Alcotest.test_case "write through ctx" `Quick test_write_through_ctx;
    Alcotest.test_case "unreachable code" `Quick test_unreachable_code;
    Alcotest.test_case "possibly null deref" `Quick test_possibly_null_deref;
    Alcotest.test_case "pointer return" `Quick test_pointer_return;
    Alcotest.test_case "bad map id" `Quick test_bad_map_id;
    Alcotest.test_case "fallthrough off end" `Quick test_fallthrough_off_end;
    Alcotest.test_case "stack out of bounds" `Quick test_stack_out_of_bounds;
    Alcotest.test_case "pointer arithmetic" `Quick test_pointer_arithmetic;
    Alcotest.test_case "pointer store forbidden" `Quick
      test_pointer_store_forbidden;
    Alcotest.test_case "adjust_head invalidates pkt ptrs" `Quick
      test_adjust_head_invalidates;
    Alcotest.test_case "guard boundary exact" `Quick test_guard_boundary;
    Alcotest.test_case "bounded loop accepted" `Quick
      test_bounded_loop_accepted;
    Alcotest.test_case "null check unlocks deref" `Quick
      test_null_check_unlocks_deref;
    Alcotest.test_case "pcap programs verify" `Quick test_pcap_programs_verify;
    Alcotest.test_case "pcap counting matches host filter" `Quick
      test_pcap_counting_matches_host_filter;
    Alcotest.test_case "xdp attach gate" `Quick
      test_xdp_attach_refuses_unproven_bound;
  ]
