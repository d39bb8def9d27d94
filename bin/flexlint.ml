(* flexlint: FlexTOE static checkers from the command line.

   Subcommands (see the top-level man page): [verify] (eBPF programs;
   also the default so plain [flexlint --builtin] keeps working),
   [san] (stage-effect contracts + dynamic race sanitizer), [graph]
   (FlexProve whole-graph analysis: interference, deadlock, queue
   bounds), [infer] (FlexInfer footprint inference and source lints),
   [fsm] (teardown-FSM model check), [top] (FlexScope metrics
   ranking), [trace-check] (trace_event schema validation),
   [fuzz-wire] (wire-codec negative corpus).

   Exit status — uniform across subcommands: 0 all checks passed; 1 a
   checker's verdict failed; 2 usage, file-read or decode errors. *)

open Cmdliner
module V = Flextoe.Verifier

let version = "0.7.0"

let exit_info =
  [
    Cmd.Exit.info 0 ~doc:"all checks passed.";
    Cmd.Exit.info 1 ~doc:"a check's verdict failed (program rejected, \
                          sanitizer or prover reported, mutant survived).";
    Cmd.Exit.info 2
      ~doc:"usage error, unreadable, undecodable or empty input.";
  ]

(* --- verify: eBPF programs ------------------------------------------ *)

let spec k v = { V.key_size = k; value_size = v }

(* Name, instruction array, map shapes the program is verified
   against — the shapes of the maps each extension's constructor
   loads it with. [None] means "no metadata": the verifier falls back
   to its weaker map-id/buffer checks. *)
let builtins () =
  let shapes maps = Some (Flextoe.Ebpf.map_specs maps) in
  let pcap_maps = shapes [| Flextoe.Ext_pcap.counter_map () |] in
  [
    ( "null",
      Flextoe.Ebpf.instructions (Flextoe.Xdp.null_program ()),
      Some [||] );
    ( "ext_firewall",
      Flextoe.Ext_firewall.program (),
      shapes (Flextoe.Ext_firewall.maps ()) );
    ( "ext_classifier",
      Flextoe.Ext_classifier.program (),
      shapes (Flextoe.Ext_classifier.maps ()) );
    ("ext_vlan", Flextoe.Ext_vlan.program (), Some [||]);
    ( "ext_splice",
      Flextoe.Ext_splice.program (),
      shapes (Flextoe.Ext_splice.maps ()) );
    ("ext_pcap", Flextoe.Ext_pcap.program (), pcap_maps);
    ( "ext_pcap(syn|fin)",
      Flextoe.Ext_pcap.(
        program_of_filter (Or (Tcp_flag `Syn, Tcp_flag `Fin))),
      pcap_maps );
  ]

let dump_states insns (a : V.analysis) =
  Array.iteri
    (fun i insn ->
      Format.printf "  %3d: %a@." i Flextoe.Bpf_insn.pp insn;
      List.iter
        (fun st -> Format.printf "       in: %a@." V.pp_state st)
        a.V.trace.(i))
    insns

let check ~dump (name, insns, maps) =
  match V.verify ?maps insns with
  | Ok a ->
      Format.printf "OK   %-20s %3d insns, %d states, %d back edge%s@." name
        a.V.insn_count a.V.states_explored
        (List.length a.V.back_edges)
        (if List.length a.V.back_edges = 1 then "" else "s");
      if dump then dump_states insns a;
      true
  | Error v ->
      Format.printf "FAIL %-20s %s@." name (V.violation_to_string v);
      (match v.V.state with
      | Some st when dump -> Format.printf "     state: %a@." V.pp_state st
      | _ -> ());
      false

let parse_map s =
  match String.split_on_char 'x' s with
  | [ k; v ] -> (
      match (int_of_string_opt k, int_of_string_opt v) with
      | Some k, Some v when k > 0 && v > 0 -> Ok (spec k v)
      | _ -> Error (`Msg "expected KEYxVALUE, e.g. 4x8"))
  | _ -> Error (`Msg "expected KEYxVALUE, e.g. 4x8")

let map_conv =
  Arg.conv
    ( parse_map,
      fun ppf m ->
        Format.fprintf ppf "%dx%d" m.V.key_size m.V.value_size )

let run_verify builtin dump maps files =
  let load path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          let bytes = Bytes.create len in
          really_input ic bytes 0 len;
          bytes)
    with
    | bytes -> (
        match Flextoe.Bpf_insn.decode bytes with
        | Ok insns ->
            let specs =
              if maps = [] then None else Some (Array.of_list maps)
            in
            (path, insns, specs)
        | Error e ->
            Format.printf "FAIL %-20s undecodable: %s@." path e;
            exit 2)
    | exception Sys_error e ->
        Format.printf "FAIL %-20s unreadable: %s@." path e;
        exit 2
  in
  let targets =
    (if builtin then builtins () else []) @ List.map load files
  in
  if targets = [] then begin
    Format.printf "nothing to verify: pass --builtin or a program file@.";
    exit 2
  end;
  let ok = List.fold_left (fun ok t -> check ~dump t && ok) true targets in
  if not ok then exit 1

let builtin_t =
  Arg.(
    value & flag
    & info [ "builtin" ] ~doc:"Verify the shipped extension programs.")

let dump_t =
  Arg.(
    value & flag
    & info [ "dump" ]
        ~doc:"Print each instruction with the abstract states reaching it.")

let maps_t =
  Arg.(
    value
    & opt_all map_conv []
    & info [ "map" ] ~docv:"KEYxVALUE"
        ~doc:
          "Declare a map shape for file programs (repeatable; order gives \
           the map id). Example: --map 4x8.")

let files_t =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"PROGRAM"
        ~doc:"eBPF program file in the kernel instruction encoding.")

let verify_term = Term.(const run_verify $ builtin_t $ dump_t $ maps_t $ files_t)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~version
       ~doc:"Statically verify FlexTOE eBPF programs" ~exits:exit_info
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the eBPF verifier over the shipped extension programs \
              ($(b,--builtin)) and/or programs decoded from files in the \
              kernel instruction encoding. File programs take their map \
              shapes from repeated $(b,--map) options.";
         ])
    verify_term

(* --- san: stage-effect contracts and the dynamic sanitizer ---------- *)

module D = Flextoe.Datapath
module E = Flextoe.Effects
module San = Flextoe.San
module Defect = Flextoe.Defect
module PL = Flextoe.Pipeline

(* Resolve a VARIANT argument against the defect catalogue, or fail
   naming every variant. [flag] fills the FAIL line's subject column. *)
let defect_of_arg flag v =
  match Defect.of_name v with
  | Some d -> d
  | None ->
      Format.printf "FAIL %-20s unknown variant %s (have: %s)@." flag v
        (String.concat ", " (List.map Defect.name Defect.all));
      exit 2

let static_check () =
  let contracts = PL.contracts PL.builtin in
  List.iter (Format.printf "     %a@." E.pp_contract) contracts;
  match E.check contracts with
  | Ok () ->
      Format.printf "OK   contracts            %d stages, pairwise compatible@."
        (List.length contracts);
      true
  | Error cs ->
      List.iter
        (fun c -> Format.printf "FAIL contract             %s@." (E.conflict_to_string c))
        cs;
      false

(* Boot two sanitized nodes, run an echo workload, return the nodes'
   sanitizers. [defect] seeds a defect for --seeded. *)
let run_pipeline ?defect () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let config = { Flextoe.Config.default with Flextoe.Config.san = true } in
  let ip_a = 0x0A000001 and ip_b = 0x0A000002 in
  let a = Flextoe.create_node engine ~fabric ~config ?defect ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ~config ?defect ~ip:ip_b () in
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint b) ~engine
       ~server_ip:ip_a ~server_port:7 ~conns:2 ~pipeline:8 ~req_bytes:256
       ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 20) engine;
  List.filter_map (fun n -> D.san (Flextoe.datapath n)) [ a; b ]

let print_reports s =
  List.iter
    (fun r -> Format.printf "     %s@." (San.report_to_string r))
    (San.reports s)

let run_san builtin seeded =
  let ok = static_check () in
  let ok =
    ok
    &&
    if builtin then begin
      let sans = run_pipeline () in
      let n = List.fold_left (fun a s -> a + San.report_count s) 0 sans in
      let accesses = List.fold_left (fun a s -> a + San.accesses s) 0 sans in
      List.iter print_reports sans;
      if n = 0 then begin
        Format.printf "OK   pipeline             %d accesses traced, 0 reports@."
          accesses;
        true
      end
      else begin
        Format.printf "FAIL pipeline             %d sanitizer report%s@." n
          (if n = 1 then "" else "s");
        false
      end
    end
    else true
  in
  let ok =
    ok
    &&
    match seeded with
    | None -> true
    | Some variant -> (
        let defect = defect_of_arg "seeded" variant in
        match run_pipeline ~defect () with
        | exception E.Contract_violation cs ->
            (* Static-layer variants are caught at create. *)
            Format.printf "OK   seeded:%-13s caught statically: %s@." variant
              (E.conflict_to_string (List.hd cs));
            true
        | sans ->
            let n =
              List.fold_left (fun a s -> a + San.report_count s) 0 sans
            in
            List.iter print_reports sans;
            if n > 0 then begin
              Format.printf "OK   seeded:%-13s %d report%s@." variant n
                (if n = 1 then "" else "s");
              true
            end
            else begin
              Format.printf "FAIL seeded:%-13s defect went undetected@."
                variant;
              false
            end)
  in
  if not ok then exit 1

let san_builtin_t =
  Arg.(
    value & flag
    & info [ "builtin" ]
        ~doc:
          "Also run the dynamic sanitizer: boot a sanitized pipeline under \
           an echo workload and require zero reports.")

let seeded_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "seeded" ] ~docv:"VARIANT"
        ~doc:
          ("Run a deliberately-broken datapath variant and require the \
            sanitizer to flag it (detector self-test). Variants: "
          ^ String.concat "; "
              (List.map
                 (fun d ->
                   Printf.sprintf "$(b,%s): %s" (Defect.name d) (Defect.doc d))
                 Defect.all)
          ^ "."))

let san_cmd =
  Cmd.v
    (Cmd.info "san" ~version
       ~doc:
         "Check the datapath stage-effect contracts (FlexSan layer 1) and \
          optionally the dynamic race sanitizer (layer 2)"
       ~exits:exit_info
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Checks the built-in stage set's effect contracts pairwise. \
              With $(b,--builtin), additionally boots a sanitized two-node \
              pipeline under an echo workload and requires zero dynamic \
              reports; with $(b,--seeded) $(i,VARIANT), runs a \
              deliberately-broken datapath and requires the sanitizer to \
              catch it (detector self-test). The whole-graph generalization \
              of the pairwise check lives in $(b,flexlint graph).";
         ])
    Term.(const run_san $ san_builtin_t $ seeded_t)

(* --- top: FlexScope metrics-snapshot report -------------------------- *)

module J = Sim.Json

let read_json path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> (
      match J.of_string s with
      | Ok j -> j
      | Error e ->
          Format.printf "FAIL %-20s unparsable: %s@." path e;
          exit 2)
  | exception Sys_error e ->
      Format.printf "FAIL %-20s unreadable: %s@." path e;
      exit 2

let obj_members j =
  match J.to_obj_opt j with Some kvs -> kvs | None -> []

let jnum k j = Option.bind (J.member k j) J.to_float_opt
let jint k j = Option.bind (J.member k j) J.to_int_opt

let run_top path limit =
  let m = read_json path in
  (match (jint "events" m, jint "dropped_events" m, jint "flight_dumps" m) with
  | Some ev, Some dr, Some fd ->
      Printf.printf "events: %d recorded, %d dropped, %d flight dump(s)\n"
        ev dr fd
  | _ -> ());
  let hists =
    obj_members (Option.value ~default:J.Null (J.member "histograms" m))
  in
  (* Stage histograms ranked by total attributed cycles — the
     where-does-the-time-go table. *)
  let stages =
    List.filter_map
      (fun (name, h) ->
        if String.length name > 6 && String.sub name 0 6 = "stage/" then
          match (jint "count" h, jnum "mean" h) with
          | Some n, Some mean ->
              Some
                ( String.sub name 6 (String.length name - 6),
                  n,
                  mean,
                  float_of_int n *. mean,
                  h )
          | _ -> None
        else None)
      hists
    |> List.sort (fun (_, _, _, a, _) (_, _, _, b, _) -> compare b a)
  in
  let pct h q =
    match jint q h with Some v -> string_of_int v | None -> "n/a"
  in
  Printf.printf "%-14s %10s %10s %12s %8s %8s %8s\n" "stage" "count"
    "mean cyc" "total Mcyc" "p50" "p99" "p999";
  List.iteri
    (fun i (name, n, mean, total, h) ->
      if i < limit then
        Printf.printf "%-14s %10d %10.1f %12.2f %8s %8s %8s\n" name n mean
          (total /. 1e6) (pct h "p50") (pct h "p99") (pct h "p999"))
    stages;
  let lifecycle =
    List.filter
      (fun (name, _) ->
        String.length name > 13 && String.sub name 0 13 = "lifecycle_ns/")
      hists
  in
  if lifecycle <> [] then begin
    Printf.printf "%-14s %10s %10s %12s %8s %8s %8s\n" "lifecycle"
      "count" "mean ns" "" "p50" "p99" "p999";
    List.iter
      (fun (name, h) ->
        match (jint "count" h, jnum "mean" h) with
        | Some n, Some mean ->
            Printf.printf "%-14s %10d %10.1f %12s %8s %8s %8s\n"
              (String.sub name 13 (String.length name - 13))
              n mean "" (pct h "p50") (pct h "p99") (pct h "p999")
        | _ -> ())
      lifecycle
  end;
  let counters =
    obj_members (Option.value ~default:J.Null (J.member "counters" m))
  in
  if counters <> [] then begin
    Printf.printf "counters:\n";
    List.iter
      (fun (k, v) ->
        match J.to_int_opt v with
        | Some v -> Printf.printf "  %-24s %d\n" k v
        | None -> ())
      counters
  end;
  let series =
    obj_members (Option.value ~default:J.Null (J.member "series" m))
  in
  let utils =
    List.filter_map
      (fun (k, s) ->
        if String.length k > 5 && String.sub k 0 5 = "util/" then
          Option.map
            (fun mean -> (String.sub k 5 (String.length k - 5), mean, s))
            (jnum "mean" s)
        else None)
      series
    |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
  in
  if utils <> [] then begin
    Printf.printf "utilization (busy fraction, mean over run):\n";
    List.iteri
      (fun i (k, mean, s) ->
        if i < limit then
          Printf.printf "  %-24s %5.1f%%  (max %5.1f%%)\n" k (100. *. mean)
            (100. *. Option.value ~default:0. (jnum "max" s)))
      utils
  end

let metrics_file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"METRICS.json"
        ~doc:"Metrics snapshot written by flextoe-sim --profile.")

let limit_t =
  Arg.(
    value & opt int 20
    & info [ "limit" ] ~doc:"Rows per ranked table (default 20).")

let top_cmd =
  Cmd.v
    (Cmd.info "top" ~version
       ~doc:
         "Rank a FlexScope metrics snapshot: stages by total attributed \
          cycles, segment-lifecycle latencies, counters, pool utilization"
       ~exits:exit_info
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads a metrics snapshot written by flextoe-sim \
              $(b,--profile) and prints the where-does-the-time-go tables: \
              stage histograms ranked by total attributed cycles, \
              segment-lifecycle latencies, counters and pool utilization.";
         ])
    Term.(const run_top $ metrics_file_t $ limit_t)

(* --- fuzz-wire: negative corpus for the wire codec ------------------- *)

let run_fuzz_wire cases seed =
  let s = Tcp.Fuzz.run ~seed:(Int64.of_int seed) ~cases () in
  List.iter (fun f -> Format.printf "FAIL case                 %s@." f)
    s.Tcp.Fuzz.failures;
  if Tcp.Fuzz.ok s then
    Format.printf
      "OK   fuzz-wire            %d cases: %d accepted, %d rejected (%d by \
       checksum), 0 raised@."
      s.Tcp.Fuzz.total s.Tcp.Fuzz.accepted s.Tcp.Fuzz.rejected
      s.Tcp.Fuzz.csum_caught
  else begin
    Format.printf "FAIL fuzz-wire            %d of %d case(s) raised@."
      s.Tcp.Fuzz.raised s.Tcp.Fuzz.total;
    exit 1
  end

let fuzz_cases_t =
  Arg.(
    value & opt int 5000
    & info [ "cases" ] ~docv:"N" ~doc:"Corpus size (default 5000).")

let fuzz_seed_t =
  Arg.(
    value & opt int 0xF022
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Corpus seed; a fixed seed gives a reproducible corpus.")

let fuzz_wire_cmd =
  Cmd.v
    (Cmd.info "fuzz-wire" ~version
       ~doc:
         "Feed a seeded corpus of truncated/bit-flipped/garbage frames to \
          the wire decoder and checksum helpers; any raised exception fails"
       ~exits:exit_info
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Feeds a seeded corpus of truncated, bit-flipped and garbage \
              frames to the wire decoder and checksum helpers. Decoders may \
              reject; they may never raise. A fixed $(b,--seed) gives a \
              reproducible corpus.";
         ])
    Term.(const run_fuzz_wire $ fuzz_cases_t $ fuzz_seed_t)

(* --- trace-check: Chrome trace_event JSONL schema validation --------- *)

let run_trace_check path =
  let ic =
    try open_in path
    with Sys_error e ->
      Format.printf "FAIL %-20s unreadable: %s@." path e;
      exit 2
  in
  let total = ref 0 and bad = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then begin
            incr total;
            match J.of_string line with
            | Error e ->
                incr bad;
                if !bad <= 10 then
                  Format.printf "FAIL line %-12d unparsable: %s@." !total e
            | Ok j -> (
                match Sim.Scope.validate_trace_line j with
                | Ok () -> ()
                | Error e ->
                    incr bad;
                    if !bad <= 10 then
                      Format.printf "FAIL line %-12d %s@." !total e)
          end
        done
      with End_of_file -> ());
  (* An empty trace is an input problem, not a schema verdict: exit 2
     like every other unreadable/empty input across the subcommands. *)
  if !total = 0 then begin
    Format.printf "FAIL %-20s empty trace@." path;
    exit 2
  end;
  if !bad > 0 then begin
    Format.printf "FAIL %-20s %d of %d line(s) invalid@." path !bad !total;
    exit 1
  end;
  Format.printf "OK   %-20s %d trace_event line(s) valid@." path !total

let trace_file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE.jsonl"
        ~doc:"Chrome trace_event JSONL written by flextoe-sim --profile full.")

let trace_check_cmd =
  Cmd.v
    (Cmd.info "trace-check" ~version
       ~doc:
         "Validate a FlexScope Chrome trace_event JSONL export against the \
          emitter's schema"
       ~exits:exit_info
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Validates every line of a Chrome trace_event JSONL export \
              against the emitter's schema. Invalid lines fail with exit 1; \
              an unreadable or empty file is an input error (exit 2).";
         ])
    Term.(const run_trace_check $ trace_file_t)

(* --- graph: FlexProve whole-graph static analysis --------------------- *)

module GI = Flextoe.Graph_ir
module P = Flextoe.Prove

(* The acceptance matrix: batching off and the two CI-exercised
   degrees, each with FlexGuard off and on — the four structural
   shapes the extraction can take (bounded vs unbounded CP queue,
   coalesced vs unit batches). *)
let graph_degrees = [ 1; 8; 16 ]

let graph_config ~batch ~guard =
  {
    Flextoe.Config.default with
    Flextoe.Config.batch;
    guard =
      (if guard then Flextoe.Config.guard_default
       else Flextoe.Config.guard_none);
  }

let write_out path s =
  if path = "-" then print_string s
  else
    match open_out path with
    | oc ->
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc s)
    | exception Sys_error e ->
        Format.printf "FAIL %-20s unwritable: %s@." path e;
        exit 2

let check_combo ~batch ~guard =
  let mode = Printf.sprintf "batch=%-2d guard=%s" batch
      (if guard then "on " else "off") in
  match
    P.check_graph (GI.builtin ~config:(graph_config ~batch ~guard) ())
  with
  | Ok reports ->
      List.iter
        (fun r ->
          List.iter
            (fun n -> Format.printf "OK   %-20s %s %s@." r.P.r_pass mode n)
            r.P.r_notes)
        reports;
      true
  | Error fs ->
      List.iter
        (fun f ->
          Format.printf "FAIL %-20s %s %s: %s@." f.P.f_pass mode
            f.P.f_subject f.P.f_detail)
        fs;
      false

(* One seeded defect against the passes: caught statically, tagged
   dynamic-only with its rationale, or — the CI-failing case — an
   unclassified gap in the safety story. *)
let classify_variant defect =
  let name = Defect.name defect in
  match
    P.check_graph
      (GI.builtin ~defect ~config:Flextoe.Config.default ())
  with
  | Error fs ->
      Format.printf "OK   caught:%-13s %s@." name
        (P.finding_to_string (List.hd fs));
      true
  | Ok _ -> (
      match Defect.dynamic_only Defect.Flexprove defect with
      | Some why ->
          Format.printf "OK   dynamic:%-12s %s@." name why;
          true
      | None ->
          Format.printf
            "FAIL unclassified:%-7s as-built graph is clean yet the \
             variant is not tagged dynamic-only@."
            name;
          false)

let run_graph dot classify sabotage_v =
  (match dot with
  | Some path ->
      write_out path
        (GI.to_dot (GI.builtin ~config:Flextoe.Config.default ()))
  | None -> ());
  let ok =
    match sabotage_v with
    | Some v -> classify_variant (defect_of_arg "sabotage" v)
    | None ->
        let clean =
          List.fold_left
            (fun acc batch ->
              List.fold_left
                (fun acc guard -> check_combo ~batch ~guard && acc)
                acc [ false; true ])
            true graph_degrees
        in
        if classify then
          List.fold_left
            (fun acc d -> classify_variant d && acc)
            clean Defect.all
        else clean
  in
  if not ok then exit 1

let graph_dot_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:
          "Write the healthy pipeline graph in Graphviz DOT format to \
           $(docv) (- for stdout) before checking.")

let graph_classify_t =
  Arg.(
    value & flag
    & info [ "classify" ]
        ~doc:
          "Additionally classify every seeded sabotage variant: each must \
           be caught statically or be explicitly tagged dynamic-only; an \
           unclassified variant fails.")

let graph_sabotage_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "sabotage" ] ~docv:"VARIANT"
        ~doc:
          "Classify a single sabotage variant's as-built graph instead of \
           checking the healthy matrix.")

let graph_cmd =
  Cmd.v
    (Cmd.info "graph" ~version
       ~doc:
         "FlexProve: whole-graph static analysis of the pipeline \
          (interference, deadlock freedom, queue bounds)"
       ~exits:exit_info
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Extracts the built-in pipeline as a typed graph (stages with \
              effect contracts and serialization domains, queues with \
              capacities and overflow policies, credit edges) and runs the \
              FlexProve passes: whole-graph interference — the transitive \
              generalization of the pairwise contract check in \
              $(b,flexlint san) — deadlock freedom of the \
              credit/backpressure wait-for graph, worst-case queue \
              occupancy against configured capacities, and soundness of \
              the LP partition for the parallel simulator (positive \
              lookahead on cross-LP edges, serialization domains \
              co-located). The healthy matrix \
              covers batch degrees 1, 8 and 16, each with FlexGuard off \
              and on. The same passes run at node construction; this \
              command is the offline/CI surface.";
         ])
    Term.(const run_graph $ graph_dot_t $ graph_classify_t $ graph_sabotage_t)

(* --- fsm: teardown-FSM model check ------------------------------------ *)

let fsm_modes =
  [ (false, false); (false, true); (true, false); (true, true) ]

let fsm_mode_name (guard, tw) =
  Printf.sprintf "guard=%s tw=%s" (if guard then "on " else "off")
    (if tw then "on " else "off")

let run_fsm mutate dot =
  (match dot with
  | Some path -> write_out path (P.fsm_dot ~guard:true ~tw:true ())
  | None -> ());
  match mutate with
  | None ->
      let ok =
        List.fold_left
          (fun acc mode ->
            let guard, tw = mode in
            match P.check_fsm ~guard ~tw () with
            | Ok notes ->
                List.iter
                  (fun n ->
                    Format.printf "OK   fsm %-16s %s@." (fsm_mode_name mode) n)
                  notes;
                acc
            | Error c ->
                Format.printf "FAIL fsm %-16s %s@." (fsm_mode_name mode)
                  (P.counterexample_to_string c);
                false)
          true fsm_modes
      in
      if not ok then exit 1
  | Some name -> (
      match List.assoc_opt name P.fsm_mutations with
      | None ->
          Format.printf
            "FAIL mutate               unknown mutation %s (have: %s)@." name
            (String.concat ", " (List.map fst P.fsm_mutations));
          exit 2
      | Some step -> (
          (* Checker self-test: the mutated table must be rejected in
             at least one feature mode, with a path-to-violation
             counterexample. A surviving mutant is a blind spot. *)
          let rejections =
            List.filter_map
              (fun (guard, tw) ->
                match P.check_fsm ~step ~guard ~tw () with
                | Error c -> Some ((guard, tw), c)
                | Ok _ -> None)
              fsm_modes
          in
          match rejections with
          | [] ->
              Format.printf
                "FAIL mutate:%-13s survived every mode (checker blind \
                 spot)@."
                name;
              exit 1
          | (mode, c) :: _ ->
              Format.printf "OK   mutate:%-13s rejected (%s): %s@." name
                (String.trim (fsm_mode_name mode))
                (P.counterexample_to_string c)))

let fsm_mutate_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "mutate" ] ~docv:"NAME"
        ~doc:
          "Run the checker over a seeded single-transition mutation of the \
           teardown table and require a rejection (checker self-test). \
           Mutations: drop_tw_reack, skip_time_wait, tw_immortal, \
           reopen_rx, reap_established.")

let fsm_dot_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:
          "Write the reachable teardown transition graph (guard and \
           TIME_WAIT on) in Graphviz DOT format to $(docv) (- for stdout).")

let fsm_cmd =
  Cmd.v
    (Cmd.info "fsm" ~version
       ~doc:
         "Model-check the shared teardown transition table against the \
          RFC-793/6191 teardown spec"
       ~exits:exit_info
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Exhaustively checks Conn_state.step — the single transition \
              table the control plane's teardown poll, idle reaper, \
              TIME_WAIT and abort paths all execute — against the teardown \
              spec: no dead states, direction monotonicity, RECLAIMED \
              absorbing, TIME_WAIT entry/re-ACK discipline (RFC 793), \
              reaper exemptions, and orphan-freedom (every closing state \
              reaches RECLAIMED; via local timer/poll events alone when \
              FlexGuard is on). Violations come with a shortest \
              path-to-violation counterexample from ESTABLISHED. \
              $(b,--mutate) runs the checker over a seeded broken table \
              and requires the rejection.";
         ])
    Term.(const run_fsm $ fsm_mutate_t $ fsm_dot_t)

(* --- infer: FlexInfer source-level effect inference ------------------- *)

module I = Analysis.Infer

let infer_root root_opt =
  match root_opt with
  | Some r -> r
  | None -> (
      match I.find_root () with
      | Some r -> r
      | None ->
          Format.printf
            "FAIL infer                cannot find repository root \
             (lib/flextoe/datapath.ml); pass --root@.";
          exit 2)

let print_findings fs =
  List.iter (fun f -> Format.printf "%s@." (I.finding_to_string f)) fs

let print_footprints fps =
  List.iter
    (fun (fp : I.footprint) ->
      let names l =
        String.concat ","
          (List.map Flextoe.Effects.obj_name l)
      in
      Format.printf "     %-10s reads{%s} writes{%s}@." fp.I.fp_stage
        (names fp.I.fp_reads) (names fp.I.fp_writes))
    fps

(* One seeded defect: its source-level footprint (the analyzer sees
   the defect's code via partial evaluation of the [Defect.is] guards)
   diffed against its declared contracts must yield findings — or the
   defect must be tagged dynamic-only. *)
let infer_classify_variant ~root defect =
  let name = Defect.name defect in
  match
    I.infer_repo_diff ~defect
      ~declared:(PL.contracts ~defect PL.builtin) ~root ()
  with
  | Error e ->
      Format.printf "FAIL infer:%-13s %s@." name e;
      false
  | Ok (_, findings) -> (
      match (findings, Defect.dynamic_only Defect.Flexinfer defect) with
      | f :: _, _ ->
          Format.printf "OK   caught:%-13s %s@." name (I.finding_to_string f);
          true
      | [], Some why ->
          Format.printf "OK   dynamic:%-12s %s@." name why;
          true
      | [], None ->
          Format.printf
            "FAIL unclassified:%-7s source footprint matches the declared \
             contract yet the variant is not tagged dynamic-only@."
            name;
          false)

let run_infer root_opt json footprints classify sabotage_v =
  let root = infer_root root_opt in
  match sabotage_v with
  | Some v ->
      if not (infer_classify_variant ~root (defect_of_arg "sabotage" v)) then
        exit 1
  | None -> (
      match I.analyze_repo ~declared:(PL.contracts PL.builtin) ~root () with
      | Error e ->
          Format.printf "FAIL infer                %s@." e;
          exit 2
      | Ok r ->
          (match json with
          | Some path -> write_out path (Sim.Json.to_string (I.report_json r))
          | None -> ());
          if footprints then print_footprints r.I.rp_footprints;
          print_findings r.I.rp_findings;
          let clean = r.I.rp_findings = [] in
          if clean then
            Format.printf
              "OK   infer                %d stages, %d files linted, %d \
               exempted sites, 0 findings@."
              (List.length r.I.rp_footprints)
              r.I.rp_files_linted r.I.rp_seq32_exempted;
          let classified =
            if classify then
              List.fold_left
                (fun acc d -> infer_classify_variant ~root d && acc)
                true Defect.all
            else true
          in
          if not (clean && classified) then exit 1)

let infer_root_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "root" ] ~docv:"DIR"
        ~doc:
          "Repository root containing lib/flextoe/datapath.ml (default: \
           walk up from the working directory).")

let infer_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the full report (footprints, findings, lint counters) as \
           JSON to $(docv) (- for stdout).")

let infer_footprints_t =
  Arg.(
    value & flag
    & info [ "print-footprints" ]
        ~doc:"Print each stage's inferred read/write footprint.")

let infer_classify_t =
  Arg.(
    value & flag
    & info [ "classify" ]
        ~doc:
          "Additionally classify every seeded sabotage variant: its \
           source-level footprint diff must yield findings, or the variant \
           must be explicitly tagged dynamic-only; an unclassified variant \
           fails.")

let infer_sabotage_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "sabotage" ] ~docv:"VARIANT"
        ~doc:
          "Classify a single sabotage variant's source footprint instead \
           of analyzing the clean tree.")

let infer_cmd =
  Cmd.v
    (Cmd.info "infer" ~version
       ~doc:
         "FlexInfer: infer per-stage effect footprints from source and \
          diff them against the declared contracts; Seq32 wrap-safety and \
          stage-hygiene lints"
       ~exits:exit_info
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Parses the real stage sources (compiler-libs Parsetree) and \
              infers each pipeline stage's read/write footprint over the \
              Effects regions: sanitizer witnesses plus known module \
              operations, with same-file helper calls expanded \
              transitively and Protocol/Control_plane calls crossing at \
              most one module boundary. The inferred footprint is diffed \
              against the declared contract — an undeclared access is an \
              error (the contract FlexProve trusted is unsound), a \
              declared-but-never-inferred access is a drift warning. Also \
              lints lib/tcp and lib/flextoe for structural comparisons on \
              Tcp.Seq32.t values (broken at the 2^32 wrap; annotate \
              deliberate uses '(* flexinfer: seq32-exempt *)') and stage \
              bodies for blocking calls and per-segment allocation, \
              and rejects any use of Stdlib.Queue under lib/ (use \
              Sim.Fifo). \
              $(b,--classify) replays the sabotage corpus through the \
              analyzer: source-visible defects must be caught here, the \
              rest must be tagged dynamic-only.";
         ])
    Term.(
      const run_infer $ infer_root_t $ infer_json_t $ infer_footprints_t
      $ infer_classify_t $ infer_sabotage_t)

let group =
  Cmd.group
    (Cmd.info "flexlint" ~version ~doc:"FlexTOE static checkers"
       ~exits:exit_info
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Static checkers for the FlexTOE reproduction, one \
              subcommand per analysis surface:";
           `P "$(b,verify) — eBPF extension programs (also the default).";
           `P "$(b,san) — stage-effect contracts + dynamic race sanitizer.";
           `P
             "$(b,graph) — FlexProve whole-graph analysis: interference, \
              deadlock, queue bounds.";
           `P
             "$(b,infer) — FlexInfer source-level footprint inference vs \
              declared contracts; Seq32 and hygiene lints.";
           `P "$(b,fsm) — teardown-FSM model check against RFC-793/6191.";
           `P "$(b,top) — rank a FlexScope metrics snapshot.";
           `P "$(b,trace-check) — validate a trace_event JSONL export.";
           `P "$(b,fuzz-wire) — wire-codec negative corpus.";
           `P
             "All subcommands share the exit contract: 0 passed, 1 a \
              verdict failed, 2 input or usage error.";
         ])
    ~default:verify_term
    [
      verify_cmd; san_cmd; graph_cmd; infer_cmd; fsm_cmd; top_cmd;
      trace_check_cmd; fuzz_wire_cmd;
    ]

let () =
  (* Fold cmdliner's parse-error code into the documented usage-error
     status (2), keeping 0/1 for the checkers' own verdicts. *)
  match Cmd.eval group with
  | c when c = Cmd.Exit.cli_error -> exit 2
  | c -> exit c
