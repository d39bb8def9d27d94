type t = {
  engine : Sim.Engine.t;
  program : Ebpf.program;
  maps : Bpf_map.t array;
  mutable runs : int;
  mutable passed : int;
  mutable dropped : int;
  mutable txed : int;
  mutable redirected : int;
  mutable insns : int;
}

let create engine ~program ~maps =
  {
    engine;
    program;
    maps;
    runs = 0;
    passed = 0;
    dropped = 0;
    txed = 0;
    redirected = 0;
    insns = 0;
  }

let null_program () =
  match
    Ebpf.load ~maps:[||]
      [|
        Bpf_insn.Alu64 (Bpf_insn.Mov, 0, Bpf_insn.Imm Bpf_insn.xdp_pass);
        Bpf_insn.Exit;
      |]
  with
  | Ok p -> p
  | Error _ -> assert false

let run_on_frame t frame =
  t.runs <- t.runs + 1;
  let packet = Tcp.Wire.encode frame in
  let now_ns =
    Int64.of_float (Sim.Time.to_ns (Sim.Engine.now t.engine))
  in
  let outcome = Ebpf.run t.program ~maps:t.maps ~now_ns ~packet in
  t.insns <- t.insns + outcome.Ebpf.insns_executed;
  let decode_result ~fixup =
    let bytes = outcome.Ebpf.packet in
    if fixup && Bytes.length bytes >= 54 then
      (try Tcp.Wire.fixup_tcp_checksum bytes with _ -> ());
    match Tcp.Wire.decode ~verify_checksums:false bytes with
    | Ok f -> Some f
    | Error _ -> None
  in
  let action =
    if outcome.Ebpf.ret = Bpf_insn.xdp_pass then begin
      match decode_result ~fixup:false with
      | Some f ->
          t.passed <- t.passed + 1;
          Datapath.Xdp_pass f
      | None ->
          t.dropped <- t.dropped + 1;
          Datapath.Xdp_drop
    end
    else if outcome.Ebpf.ret = Bpf_insn.xdp_tx then begin
      match decode_result ~fixup:true with
      | Some f ->
          t.txed <- t.txed + 1;
          Datapath.Xdp_tx f
      | None ->
          t.dropped <- t.dropped + 1;
          Datapath.Xdp_drop
    end
    else if outcome.Ebpf.ret = Bpf_insn.xdp_redirect then begin
      match decode_result ~fixup:false with
      | Some f ->
          t.redirected <- t.redirected + 1;
          Datapath.Xdp_redirect f
      | None ->
          t.dropped <- t.dropped + 1;
          Datapath.Xdp_drop
    end
    else begin
      (* XDP_DROP and XDP_ABORTED. *)
      t.dropped <- t.dropped + 1;
      Datapath.Xdp_drop
    end
  in
  (outcome.Ebpf.insns_executed, action)

let hook t = { Datapath.xdp_run = (fun frame -> run_on_frame t frame) }

let install t dp = Datapath.set_xdp_ingress dp (Some (hook t))
let uninstall dp = Datapath.set_xdp_ingress dp None

let attach engine ~insns ~maps dp =
  Ebpf.load ~maps insns
  |> Result.map (fun program ->
         let t = create engine ~program ~maps in
         install t dp;
         t)

let maps t = t.maps
let runs t = t.runs
let passed t = t.passed
let dropped t = t.dropped
let txed t = t.txed
let redirected t = t.redirected
let insns_total t = t.insns
