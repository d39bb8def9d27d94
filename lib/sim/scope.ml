type mode = Metrics_only | Full

type span = {
  sp_stage : string;
  sp_conn : int;
  sp_id : int;
  sp_t0 : Time.t;
}

type flight_entry = {
  fl_time : Time.t;
  fl_kind : string;
  fl_name : string;
  fl_arg : int;
}

(* A per-connection bounded ring of recent lifecycle events, one
   array per field so that recording one allocates nothing. *)
type flight_ring = {
  f_time : Time.t array;
  f_kind : string array;
  f_name : string array;
  f_arg : int array;
  mutable next : int;
  mutable total : int;
}

(* Chrome trace_event records, accumulated in memory and rendered as
   JSONL at export time. *)
type ev =
  | Ev_complete of {
      track : string;
      name : string;
      conn : int;
      id : int;
      t0 : Time.t;
      dur : Time.t;
      cycles : int;
    }
  | Ev_async of {
      track : string;
      first : bool;  (* true = "b", false = "e" *)
      id : int;
      ts : Time.t;
      conn : int;
    }
  | Ev_instant of { track : string; name : string; ts : Time.t; conn : int;
                    arg : int }
  | Ev_counter of { series : string; ts : Time.t; value : float }

type series_state = {
  mutable s_last : float;
  mutable s_min : float;
  mutable s_max : float;
  mutable s_sum : float;
  mutable s_n : int;
}

type open_seg = { o_t0 : Time.t; o_conn : int }

(* One lifecycle track: its open spans by id, and its
   "lifecycle_ns/<track>" histogram, resolved at the first end. *)
type seg_track = {
  sg_open : (int, open_seg) Hashtbl.t;
  mutable sg_hist : Stats.Histogram.t option;
}

type t = {
  engine : Engine.t;
  mode : mode;
  hists : (string, Stats.Histogram.t) Hashtbl.t;
  mutable hist_order : string list;  (* reverse creation order *)
  stage_hists : (string, Stats.Histogram.t) Hashtbl.t;
      (* [hists]' "stage/<name>" entries, keyed by the bare name *)
  mutable sources : (unit -> (string * int) list) list;
      (* counter sources, read at snapshot time *)
  mutable events : ev list;  (* newest first *)
  mutable n_events : int;
  max_events : int;
  mutable dropped_events : int;
  series : (string, series_state) Hashtbl.t;
  seg_tracks : (string, seg_track) Hashtbl.t;
  mutable n_open : int;  (* open lifecycle spans, across tracks *)
  flight_capacity : int;
  flight : (int, flight_ring) Hashtbl.t;
  max_flight_conns : int;
  mutable flight_dumps : int;
}

let create ?(mode = Full) ?(max_events = 200_000) ?(flight_capacity = 32)
    engine =
  {
    engine;
    mode;
    hists = Hashtbl.create 32;
    hist_order = [];
    stage_hists = Hashtbl.create 16;
    sources = [];
    events = [];
    n_events = 0;
    max_events;
    dropped_events = 0;
    series = Hashtbl.create 32;
    seg_tracks = Hashtbl.create 4;
    n_open = 0;
    flight_capacity;
    flight = Hashtbl.create 256;
    max_flight_conns = 4096;
    flight_dumps = 0;
  }

let mode t = t.mode
let now t = Engine.now t.engine

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Stats.Histogram.create () in
      Hashtbl.replace t.hists name h;
      t.hist_order <- name :: t.hist_order;
      h

let record t name v = Stats.Histogram.add (hist t name) v

let add_counters t source = t.sources <- source :: t.sources

let push_event t ev =
  if t.n_events < t.max_events then begin
    t.events <- ev :: t.events;
    t.n_events <- t.n_events + 1
  end
  else t.dropped_events <- t.dropped_events + 1

(* --- Flight recorder -------------------------------------------------- *)

let flight_add t fr ~time ~kind ~name ~arg =
  let i = fr.next in
  fr.f_time.(i) <- time;
  fr.f_kind.(i) <- kind;
  fr.f_name.(i) <- name;
  fr.f_arg.(i) <- arg;
  fr.next <- (i + 1) mod t.flight_capacity;
  fr.total <- fr.total + 1

let flight_push t ~conn ~time ~kind ~name ~arg =
  if conn >= 0 then begin
    match Hashtbl.find t.flight conn with
    | fr -> flight_add t fr ~time ~kind ~name ~arg
    | exception Not_found ->
        if Hashtbl.length t.flight < t.max_flight_conns then begin
          let n = t.flight_capacity in
          let fr =
            { f_time = Array.make n Time.zero; f_kind = Array.make n "";
              f_name = Array.make n ""; f_arg = Array.make n 0; next = 0;
              total = 0 }
          in
          Hashtbl.replace t.flight conn fr;
          flight_add t fr ~time ~kind ~name ~arg
        end
  end

let flight t ~conn =
  match Hashtbl.find_opt t.flight conn with
  | None -> []
  | Some fr ->
      (* Oldest first: the last [n] entries, ending before [next]. *)
      let cap = t.flight_capacity in
      let n = Int.min fr.total cap in
      List.init n (fun k ->
          let i = (fr.next - n + k + cap) mod cap in
          { fl_time = fr.f_time.(i); fl_kind = fr.f_kind.(i);
            fl_name = fr.f_name.(i); fl_arg = fr.f_arg.(i) })

let flight_total t ~conn =
  match Hashtbl.find_opt t.flight conn with Some fr -> fr.total | None -> 0

let dump_flight t ~conn ~reason ppf =
  t.flight_dumps <- t.flight_dumps + 1;
  let entries = flight t ~conn in
  Format.fprintf ppf
    "@[<v>flexscope flight recorder: conn %d (%s), last %d of %d events@,"
    conn reason (List.length entries) (flight_total t ~conn);
  List.iter
    (fun e ->
      Format.fprintf ppf "  t=%11.1fns %-8s %-24s %d@," (Time.to_ns e.fl_time)
        e.fl_kind e.fl_name e.fl_arg)
    entries;
  Format.fprintf ppf "@]"

let flight_dumps t = t.flight_dumps

(* --- Spans ------------------------------------------------------------ *)

let span_begin t ~stage ~conn ~id =
  { sp_stage = stage; sp_conn = conn; sp_id = id; sp_t0 = now t }

(* A span finds its stage's histogram by the bare stage name, so it
   builds no key. "stage/<name>" is registered at the stage's first
   span, which keeps the metrics snapshot's histogram order. *)
let stage_hist t stage =
  match Hashtbl.find t.stage_hists stage with
  | h -> h
  | exception Not_found ->
      let h = hist t ("stage/" ^ stage) in
      Hashtbl.replace t.stage_hists stage h;
      h

let span_end t sp ~cycles =
  Stats.Histogram.add (stage_hist t sp.sp_stage) cycles;
  let t1 = now t in
  flight_push t ~conn:sp.sp_conn ~time:t1 ~kind:"span" ~name:sp.sp_stage
    ~arg:cycles;
  if t.mode = Full then
    push_event t
      (Ev_complete
         {
           track = sp.sp_stage;
           name = sp.sp_stage;
           conn = sp.sp_conn;
           id = sp.sp_id;
           t0 = sp.sp_t0;
           dur = t1 - sp.sp_t0;
           cycles;
         })

let max_open_segs = 65536

let seg_begin t ~track ~conn ~id =
  let ts = now t in
  let tr =
    match Hashtbl.find t.seg_tracks track with
    | tr -> tr
    | exception Not_found ->
        let tr = { sg_open = Hashtbl.create 1024; sg_hist = None } in
        Hashtbl.replace t.seg_tracks track tr;
        tr
  in
  if t.n_open < max_open_segs then begin
    let n = Hashtbl.length tr.sg_open in
    Hashtbl.replace tr.sg_open id { o_t0 = ts; o_conn = conn };
    t.n_open <- t.n_open + Hashtbl.length tr.sg_open - n
  end;
  flight_push t ~conn ~time:ts ~kind:"begin" ~name:track ~arg:id;
  if t.mode = Full then
    push_event t (Ev_async { track; first = true; id; ts; conn })

let seg_end t ~track ~id =
  match Hashtbl.find t.seg_tracks track with
  | exception Not_found -> ()
  | tr -> (
      match Hashtbl.find tr.sg_open id with
      | exception Not_found -> ()
      | { o_t0; o_conn = conn } ->
          let ts = now t in
          Hashtbl.remove tr.sg_open id;
          t.n_open <- t.n_open - 1;
          let h =
            match tr.sg_hist with
            | Some h -> h
            | None ->
                let h = hist t ("lifecycle_ns/" ^ track) in
                tr.sg_hist <- Some h;
                h
          in
          Stats.Histogram.add h (int_of_float (Time.to_ns (ts - o_t0)));
          flight_push t ~conn ~time:ts ~kind:"end" ~name:track ~arg:id;
          if t.mode = Full then
            push_event t (Ev_async { track; first = false; id; ts; conn }))

let instant t ~track ~name ~conn ~arg =
  let ts = now t in
  flight_push t ~conn ~time:ts ~kind:"instant" ~name ~arg;
  if t.mode = Full then push_event t (Ev_instant { track; name; ts; conn; arg })

let sample t ~series ~value =
  (match Hashtbl.find_opt t.series series with
  | Some s ->
      s.s_last <- value;
      if value < s.s_min then s.s_min <- value;
      if value > s.s_max then s.s_max <- value;
      s.s_sum <- s.s_sum +. value;
      s.s_n <- s.s_n + 1
  | None ->
      Hashtbl.replace t.series series
        { s_last = value; s_min = value; s_max = value; s_sum = value;
          s_n = 1 });
  if t.mode = Full then
    push_event t (Ev_counter { series; ts = now t; value })

(* --- Chrome trace_event export ---------------------------------------- *)

(* Track (pipeline stage / sampler) names are mapped to small integer
   thread ids, with "M"-phase thread_name metadata records so the
   Chrome/Perfetto UI shows the stage names. *)
let trace_json_lines t =
  let tids = Hashtbl.create 16 in
  let next_tid = ref 1 in
  let tid track =
    match Hashtbl.find_opt tids track with
    | Some i -> i
    | None ->
        let i = !next_tid in
        incr next_tid;
        Hashtbl.replace tids track i;
        i
  in
  let us ts = Time.to_us ts in
  let base name ph track ts rest =
    Json.Obj
      ([
         ("name", Json.String name);
         ("ph", Json.String ph);
         ("pid", Json.Int 0);
         ("tid", Json.Int (tid track));
         ("ts", Json.Float (us ts));
       ]
      @ rest)
  in
  let line = function
    | Ev_complete { track; name; conn; id; t0; dur; cycles } ->
        base name "X" track t0
          [
            ("dur", Json.Float (us dur));
            ( "args",
              Json.Obj
                [
                  ("conn", Json.Int conn);
                  ("id", Json.Int id);
                  ("cycles", Json.Int cycles);
                ] );
          ]
    | Ev_async { track; first; id; ts; conn } ->
        base track (if first then "b" else "e") track ts
          [
            ("cat", Json.String track);
            ("id", Json.String (Printf.sprintf "0x%x" id));
            ("args", Json.Obj [ ("conn", Json.Int conn) ]);
          ]
    | Ev_instant { track; name; ts; conn; arg } ->
        base name "i" track ts
          [
            ("s", Json.String "t");
            ( "args",
              Json.Obj [ ("conn", Json.Int conn); ("arg", Json.Int arg) ] );
          ]
    | Ev_counter { series; ts; value } ->
        base series "C" series ts
          [ ("args", Json.Obj [ ("value", Json.Float value) ]) ]
  in
  let events = List.rev_map line t.events in
  (* Metadata lines first, then events (oldest first). *)
  let meta =
    Hashtbl.fold
      (fun track i acc ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 0);
            ("tid", Json.Int i);
            ("args", Json.Obj [ ("name", Json.String track) ]);
          ]
        :: acc)
      tids []
  in
  meta @ events

(* Schema check for one exported line, shared by [flexlint
   trace-check] and the tests: every record needs name/ph/pid/tid,
   every non-metadata record a numeric ts, "X" a duration, async
   begin/end a cat and an id. *)
let validate_trace_line j =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let str k =
    match Option.bind (Json.member k j) Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or non-string %S" k)
  in
  let num k =
    match Option.bind (Json.member k j) Json.to_float_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or non-numeric %S" k)
  in
  match j with
  | Json.Obj _ ->
      let* _name = str "name" in
      let* ph = str "ph" in
      let* _pid = num "pid" in
      let* _tid = num "tid" in
      (match ph with
      | "M" -> Ok ()
      | "X" ->
          let* _ts = num "ts" in
          let* dur = num "dur" in
          if dur < 0. then Error "negative \"dur\"" else Ok ()
      | "b" | "e" ->
          let* _ts = num "ts" in
          let* _cat = str "cat" in
          let* _id = str "id" in
          Ok ()
      | "i" | "C" ->
          let* _ts = num "ts" in
          Ok ()
      | ph -> Error (Printf.sprintf "unknown phase %S" ph))
  | _ -> Error "not a JSON object"

let write_trace t oc =
  List.iter
    (fun j ->
      output_string oc (Json.to_string j);
      output_char oc '\n')
    (trace_json_lines t)

(* --- Metrics snapshot -------------------------------------------------- *)

let hist_json h =
  let open Stats.Histogram in
  let p q =
    match percentile_opt h q with Some v -> Json.Int v | None -> Json.Null
  in
  Json.Obj
    [
      ("count", Json.Int (count h));
      ("mean", Json.Float (mean h));
      ("min", (match min_opt h with Some v -> Json.Int v | None -> Json.Null));
      ("max", (match max_opt h with Some v -> Json.Int v | None -> Json.Null));
      ("p50", p 50.);
      ("p90", p 90.);
      ("p99", p 99.);
      ("p999", p 99.9);
    ]

(* Keys are unique (a hashtable's, or distinct across counter
   sources), so ordering the pairs by key alone is the order a
   structural sort of the pairs gives. *)
let by_name (a, _) (b, _) = String.compare a b

let metrics t =
  let hists =
    List.rev_map
      (fun name -> (name, hist_json (Hashtbl.find t.hists name)))
      t.hist_order
  in
  let counters =
    List.concat_map (fun source -> source ()) t.sources
    |> List.filter_map (fun (k, n) ->
           if n > 0 then Some (k, Json.Int n) else None)
    |> List.sort by_name
  in
  let series =
    Hashtbl.fold
      (fun k s acc ->
        ( k,
          Json.Obj
            [
              ("last", Json.Float s.s_last);
              ("min", Json.Float s.s_min);
              ("max", Json.Float s.s_max);
              ( "mean",
                Json.Float
                  (if s.s_n = 0 then 0. else s.s_sum /. float_of_int s.s_n)
              );
              ("samples", Json.Int s.s_n);
            ] )
        :: acc)
      t.series []
    |> List.sort by_name
  in
  Json.Obj
    [
      ("version", Json.Int 1);
      ( "mode",
        Json.String
          (match t.mode with Full -> "full" | Metrics_only -> "metrics") );
      ("now_ns", Json.Float (Time.to_ns (now t)));
      ("events", Json.Int t.n_events);
      ("dropped_events", Json.Int t.dropped_events);
      ("flight_dumps", Json.Int t.flight_dumps);
      ("counters", Json.Obj counters);
      ("histograms", Json.Obj hists);
      ("series", Json.Obj series);
    ]

let write_metrics t oc =
  output_string oc (Json.to_string (metrics t));
  output_char oc '\n'

let events_recorded t = t.n_events
let dropped_events t = t.dropped_events

let histograms t =
  List.rev_map (fun n -> (n, Hashtbl.find t.hists n)) t.hist_order
