(** FlexSan layer 2: a dynamic happens-before race and atomicity
    sanitizer for the parallel datapath.

    The simulator is single-threaded and deterministic, so nothing
    ever *actually* races — what FlexSan checks is the synchronization
    structure of the pipeline: whether the explicit ordering
    mechanisms (flow-group sequencers, the per-connection protocol
    lock, ring push/pop, DMA completion delivery, work hand-off to an
    FPC hardware thread) are sufficient to order every pair of
    conflicting accesses, as they would have to be on the real
    40-core/8-thread NFP. An access pair left unordered by those
    edges is a race on the hardware even if the simulator happened to
    execute it benignly.

    Mechanics: every execution context is a logical thread — an FPC
    hardware-thread slot ("proto12.3"), a DMA completion queue
    ("dmaq0"), a host context-queue handler ("hostctx1") — with a
    vector clock. Happens-before edges join clocks:

    - FPC work submission: the submitter's clock flows to the
      hardware thread that picks the item up ({!Nfp.Fpc.tracer}).
    - DMA completion delivery: the issuer's clock flows to the
      queue's completion context; per-queue program order provides
      the PCIe FIFO edge ({!Nfp.Dma.tracer}).
    - Sequencer submit/release: every submitter's clock accumulates
      in the sequencer channel; a release joins it — the GRO /
      egress-ordering edge ({!Sequencer.tracer}).
    - The per-connection protocol lock: release publishes, acquire
      joins ({!lock_acquire}/{!lock_release}).
    - Ring push/pop and scheduler doorbells: channel send/recv at the
      corresponding call sites.

    Each shared-state access is reported with
    (thread, stage, flow, region, kind, time); conflicting accesses
    unordered by happens-before are races, an access outside the
    stage's declared {!Effects.contract} is a contract breach, and a
    write that lands inside another stage's open span on a region
    that span already touched is an atomicity violation. *)

module E = Effects

type kind = E.kind = Read | Write

type access = {
  a_thread : string;
  a_stage : string;
  a_flow : int;  (** -1 for global objects. *)
  a_obj : E.obj;
  a_kind : kind;
  a_time : Sim.Time.t;
  a_range : (int * int) option;  (** payload (offset, length) *)
}

type report =
  | Race of access * access  (** older access first *)
  | Atomicity of {
      at_stage : string;  (** the span whose atomicity broke *)
      at_first : access;  (** the span's first touch of the region *)
      at_intruder : access;  (** the write that interleaved mid-span *)
    }
  | Contract_breach of access

let access_to_string a =
  Printf.sprintf "%s@%s %s %s[flow %d]%s t=%dns" a.a_stage a.a_thread
    (match a.a_kind with Read -> "R" | Write -> "W")
    (E.obj_name a.a_obj) a.a_flow
    (match a.a_range with
    | Some (o, l) -> Printf.sprintf "[%d..%d)" o (o + l)
    | None -> "")
    (int_of_float (Sim.Time.to_ns a.a_time))

let report_to_string = function
  | Race (a1, a2) ->
      Printf.sprintf "data race: %s unordered with %s"
        (access_to_string a1) (access_to_string a2)
  | Atomicity { at_stage; at_first; at_intruder } ->
      Printf.sprintf "atomicity violation: %s span broken — %s then %s"
        at_stage (access_to_string at_first) (access_to_string at_intruder)
  | Contract_breach a ->
      Printf.sprintf "contract breach: %s outside the stage's declared \
                      footprint"
        (access_to_string a)

(* --- Vector clocks ------------------------------------------------- *)

(* A clock maps thread id -> counter; represented as a growable int
   array. Thread 0 is the ambient "env" context (host code, engine
   timers): it never joins anything, so publishes from it carry no
   false edges and accesses are never attributed to it by the
   datapath. *)
type clock = int array

let clock_get (c : clock) i = if i < Array.length c then c.(i) else 0

let clock_join (dst : clock) (src : clock) : clock =
  if Array.length src <= Array.length dst then begin
    Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src;
    dst
  end
  else begin
    let out = Array.make (Array.length src) 0 in
    Array.blit dst 0 out 0 (Array.length dst);
    Array.iteri (fun i v -> if v > out.(i) then out.(i) <- v) src;
    out
  end

(* --- Spans --------------------------------------------------------- *)

type span = {
  sp_id : int;
  sp_stage : string;
  sp_flow : int;
  sp_begin : Sim.Time.t;
  (* (flow,obj) -> shadow version + the span's first access there. *)
  sp_touched : (int * int, int * access) Hashtbl.t;
}

(* --- Shadow state -------------------------------------------------- *)

(* Whole-object shadow cell: last write epoch plus the reads since. *)
type cell = {
  mutable cw : (int * int * access) option;  (* tid, counter, access *)
  cr : (int, int * access) Hashtbl.t;  (* tid -> counter, access *)
  mutable ver : int;  (* bumped per write, for atomicity spans *)
  mutable last_w_span : int;  (* span id of last writer, -1 if none *)
  mutable last_w_acc : access option;
}

(* Interval shadow for address-partitioned (payload) regions. *)
type pev = { pe_tid : int; pe_cnt : int; pe_acc : access }

type pcell = { mutable pw : pev list; mutable pr : pev list }

let interval_cap = 128

type t = {
  engine : Sim.Engine.t;
  contracts : (string, E.contract) Hashtbl.t;
  mutable names : string array;  (* tid -> name *)
  tids : (string, int) Hashtbl.t;
  mutable clocks : clock array;  (* tid -> clock *)
  mutable n_threads : int;
  mutable cur : int;  (* ambient thread; 0 = env *)
  chans : (string, clock) Hashtbl.t;
  mutable tokens : clock option array;  (* token id -> published clock *)
  mutable n_tokens : int;
  shadow : (int * int, cell) Hashtbl.t;  (* (flow, obj tag) *)
  pshadow : (int * int, pcell) Hashtbl.t;
  open_spans : (int, span list) Hashtbl.t;  (* flow -> open spans *)
  mutable n_spans : int;
  mutable span_overlaps : int;
  mutable record_spans : bool;
  mutable closed_spans : (int * string * Sim.Time.t * Sim.Time.t) list;
  mutable reports : report list;  (* newest first, bounded *)
  mutable n_reports : int;
  seen : (string, unit) Hashtbl.t;  (* report dedup *)
  mutable n_accesses : int;
  mutable on_report : (report -> unit) option;
      (* fresh-report hook (FlexScope flight-recorder dump) *)
}

let max_kept_reports = 64

let create ~engine ~contracts =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (c : E.contract) -> Hashtbl.replace tbl c.c_stage c) contracts;
  let names = Array.make 64 "" in
  names.(0) <- "env";
  let clocks = Array.make 64 [||] in
  clocks.(0) <- Array.make 1 1;
  let tids = Hashtbl.create 64 in
  Hashtbl.replace tids "env" 0;
  let t =
    {
      engine;
      contracts = tbl;
      names;
      tids;
      clocks;
      n_threads = 1;
      cur = 0;
      chans = Hashtbl.create 256;
      tokens = Array.make 1024 None;
      n_tokens = 0;
      shadow = Hashtbl.create 1024;
      pshadow = Hashtbl.create 1024;
      open_spans = Hashtbl.create 64;
      n_spans = 0;
      span_overlaps = 0;
      record_spans = false;
      closed_spans = [];
      reports = [];
      n_reports = 0;
      seen = Hashtbl.create 64;
      n_accesses = 0;
      on_report = None;
    }
  in
  t

(* --- Threads ------------------------------------------------------- *)

let tid t name =
  match Hashtbl.find_opt t.tids name with
  | Some i -> i
  | None ->
      let i = t.n_threads in
      t.n_threads <- i + 1;
      if i >= Array.length t.names then begin
        let names = Array.make (2 * Array.length t.names) "" in
        Array.blit t.names 0 names 0 (Array.length t.names);
        t.names <- names;
        let clocks = Array.make (2 * Array.length t.clocks) [||] in
        Array.blit t.clocks 0 clocks 0 (Array.length t.clocks);
        t.clocks <- clocks
      end;
      t.names.(i) <- name;
      (* FastTrack convention: a thread's own component starts at 1,
         so its first epoch is never covered by another thread's
         default (zero) view — a fresh thread's accesses must be
         ordered by an explicit edge, not by birth. *)
      let c = Array.make (i + 1) 0 in
      c.(i) <- 1;
      t.clocks.(i) <- c;
      Hashtbl.replace t.tids name i;
      i

let cur_clock t =
  let c = t.clocks.(t.cur) in
  if Array.length c <= t.cur then begin
    let c' = Array.make (t.cur + 1) 0 in
    Array.blit c 0 c' 0 (Array.length c);
    t.clocks.(t.cur) <- c';
    c'
  end
  else c

(* Publish the current context: snapshot its clock, then advance its
   own component so later events on this thread are not covered by
   the snapshot. *)
let publish t =
  let c = cur_clock t in
  let snap = Array.copy c in
  c.(t.cur) <- c.(t.cur) + 1;
  snap

let join_into_cur t (src : clock) =
  (* env never joins: the ambient host/timer context must not
     accumulate edges (that would let unrelated host activity appear
     ordered after datapath internals and mask races). *)
  if t.cur <> 0 then t.clocks.(t.cur) <- clock_join (cur_clock t) src

(* --- Channels and tokens ------------------------------------------- *)

let chan_send t name =
  let snap = publish t in
  let cl =
    match Hashtbl.find_opt t.chans name with
    | Some c -> clock_join c snap
    | None -> snap
  in
  Hashtbl.replace t.chans name cl

let chan_recv t name =
  match Hashtbl.find_opt t.chans name with
  | Some c -> join_into_cur t c
  | None -> ()

let token_send t =
  let snap = publish t in
  let id = t.n_tokens in
  t.n_tokens <- id + 1;
  if id >= Array.length t.tokens then begin
    let a = Array.make (2 * Array.length t.tokens) None in
    Array.blit t.tokens 0 a 0 (Array.length t.tokens);
    t.tokens <- a
  end;
  t.tokens.(id) <- Some snap;
  id

let token_join t id =
  if id >= 0 && id < Array.length t.tokens then
    match t.tokens.(id) with
    | Some c ->
        join_into_cur t c;
        t.tokens.(id) <- None  (* single consumer; free the snapshot *)
    | None -> ()

let run_as t ~thread ?join k =
  let prev = t.cur in
  t.cur <- tid t thread;
  (match join with Some tok -> token_join t tok | None -> ());
  Fun.protect ~finally:(fun () -> t.cur <- prev) k

(* --- Lock edges ---------------------------------------------------- *)

let lock_chan flow = "lock#" ^ string_of_int flow

let lock_acquire t ~flow = chan_recv t (lock_chan flow)
let lock_release t ~flow = chan_send t (lock_chan flow)

(* --- Reports ------------------------------------------------------- *)

let add_report t key r =
  t.n_reports <- t.n_reports + 1;
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    if List.length t.reports < max_kept_reports then
      t.reports <- r :: t.reports;
    match t.on_report with Some f -> f r | None -> ()
  end

let set_on_report t f = t.on_report <- f

(* The flow a report is about (first access's flow; -1 = global). *)
let report_flow = function
  | Race (a, _) -> a.a_flow
  | Atomicity { at_first; _ } -> at_first.a_flow
  | Contract_breach a -> a.a_flow

let race_key a1 a2 =
  let part a =
    a.a_stage ^ (match a.a_kind with Read -> ":R:" | Write -> ":W:")
    ^ E.obj_name a.a_obj
  in
  let p1 = part a1 and p2 = part a2 in
  if p1 <= p2 then "race|" ^ p1 ^ "|" ^ p2 else "race|" ^ p2 ^ "|" ^ p1

let report_race t older newer = add_report t (race_key older newer) (Race (older, newer))

(* --- Spans --------------------------------------------------------- *)

let span_begin t ~stage ~flow =
  let existing =
    match Hashtbl.find_opt t.open_spans flow with Some l -> l | None -> []
  in
  if List.exists (fun s -> s.sp_stage = stage) existing then
    t.span_overlaps <- t.span_overlaps + 1;
  let sp =
    {
      sp_id = t.n_spans;
      sp_stage = stage;
      sp_flow = flow;
      sp_begin = Sim.Engine.now t.engine;
      sp_touched = Hashtbl.create 8;
    }
  in
  t.n_spans <- t.n_spans + 1;
  Hashtbl.replace t.open_spans flow (sp :: existing)

let span_end t ~stage ~flow =
  match Hashtbl.find_opt t.open_spans flow with
  | None -> ()
  | Some spans ->
      let rec split acc = function
        | [] -> (None, List.rev acc)
        | s :: rest when s.sp_stage = stage ->
            (Some s, List.rev_append acc rest)
        | s :: rest -> split (s :: acc) rest
      in
      let closed, rest = split [] spans in
      (match closed with
      | Some s when t.record_spans ->
          t.closed_spans <-
            (flow, stage, s.sp_begin, Sim.Engine.now t.engine)
            :: t.closed_spans
      | _ -> ());
      if rest = [] then Hashtbl.remove t.open_spans flow
      else Hashtbl.replace t.open_spans flow rest

let cur_span t ~stage ~flow =
  match Hashtbl.find_opt t.open_spans flow with
  | None -> None
  | Some spans -> List.find_opt (fun s -> s.sp_stage = stage) spans

(* --- Access checking ----------------------------------------------- *)

let hb_before t (etid, ecnt) = ecnt <= clock_get (cur_clock t) etid

let cell_of t key =
  match Hashtbl.find_opt t.shadow key with
  | Some c -> c
  | None ->
      let c =
        { cw = None; cr = Hashtbl.create 4; ver = 0; last_w_span = -1;
          last_w_acc = None }
      in
      Hashtbl.replace t.shadow key c;
      c

let pcell_of t key =
  match Hashtbl.find_opt t.pshadow key with
  | Some c -> c
  | None ->
      let c = { pw = []; pr = [] } in
      Hashtbl.replace t.pshadow key c;
      c

let overlap r1 r2 =
  match (r1, r2) with
  | Some (o1, l1), Some (o2, l2) -> o1 < o2 + l2 && o2 < o1 + l1
  | _ ->
      (* A range-less access to a partitioned region is a pure
         metadata touch; it conflicts with nothing. *)
      false

let bounded_cons ev l = if List.length l >= interval_cap then ev :: List.filteri (fun i _ -> i < interval_cap - 1) l else ev :: l

let check_interval t cell (acc : access) =
  let epoch_cnt = clock_get (cur_clock t) t.cur in
  let me = { pe_tid = t.cur; pe_cnt = epoch_cnt; pe_acc = acc } in
  let conflicts ev =
    ev.pe_tid <> t.cur
    && overlap ev.pe_acc.a_range acc.a_range
    && not (hb_before t (ev.pe_tid, ev.pe_cnt))
  in
  (match acc.a_kind with
  | Read ->
      List.iter (fun ev -> if conflicts ev then report_race t ev.pe_acc acc) cell.pw;
      cell.pr <- bounded_cons me cell.pr
  | Write ->
      List.iter (fun ev -> if conflicts ev then report_race t ev.pe_acc acc) cell.pw;
      List.iter (fun ev -> if conflicts ev then report_race t ev.pe_acc acc) cell.pr;
      cell.pw <- bounded_cons me cell.pw)

let check_cell t cell (acc : access) ~span =
  let epoch_cnt = clock_get (cur_clock t) t.cur in
  (* Snapshot the writer state before applying this access: the
     atomicity check below must see who wrote last *between* the
     span's touches, not the current access itself. *)
  let pre_ver = cell.ver in
  let pre_w_span = cell.last_w_span in
  let pre_w_acc = cell.last_w_acc in
  (* Race vs the last write. *)
  (match cell.cw with
  | Some (wt, wc, wacc) when wt <> t.cur && not (hb_before t (wt, wc)) ->
      report_race t wacc acc
  | _ -> ());
  (match acc.a_kind with
  | Read -> Hashtbl.replace cell.cr t.cur (epoch_cnt, acc)
  | Write ->
      (* Race vs reads since the last write. *)
      Hashtbl.iter
        (fun rt (rc, racc) ->
          if rt <> t.cur && not (hb_before t (rt, rc)) then
            report_race t racc acc)
        cell.cr;
      Hashtbl.reset cell.cr;
      cell.cw <- Some (t.cur, epoch_cnt, acc);
      cell.ver <- cell.ver + 1;
      cell.last_w_span <- (match span with Some s -> s.sp_id | None -> -1);
      cell.last_w_acc <- Some acc);
  (* Atomicity: within an open span, the region must not be written
     from outside the span between the span's touches — even when
     that write is happens-before ordered (a lock released too early
     still breaks the critical section's atomicity). *)
  match span with
  | None -> ()
  | Some s ->
      let key = (acc.a_flow, E.obj_tag acc.a_obj) in
      (match Hashtbl.find_opt s.sp_touched key with
      | None -> ()
      | Some (v0, first) ->
          if pre_ver > v0 && pre_w_span <> s.sp_id then
            match pre_w_acc with
            | Some intruder ->
                add_report t
                  ("atom|" ^ s.sp_stage ^ "|" ^ E.obj_name acc.a_obj ^ "|"
                 ^ intruder.a_stage)
                  (Atomicity
                     { at_stage = s.sp_stage; at_first = first;
                       at_intruder = intruder })
            | None -> ());
      (* Track the post-access version; keep the first touch for the
         diagnostic. *)
      let first =
        match Hashtbl.find_opt s.sp_touched key with
        | Some (_, f) -> f
        | None -> acc
      in
      Hashtbl.replace s.sp_touched key (cell.ver, first)

let access t ~stage ~flow ~obj ?range kind =
  t.n_accesses <- t.n_accesses + 1;
  let acc =
    {
      a_thread = (if t.cur < t.n_threads then t.names.(t.cur) else "?");
      a_stage = stage;
      a_flow = flow;
      a_obj = obj;
      a_kind = kind;
      a_time = Sim.Engine.now t.engine;
      a_range = range;
    }
  in
  (* Contract conformance. *)
  (match Hashtbl.find_opt t.contracts stage with
  | None -> add_report t ("breach|" ^ stage) (Contract_breach acc)
  | Some c ->
      let declared =
        match kind with
        | Write -> E.mem obj c.c_writes
        | Read -> E.mem obj c.c_reads || E.mem obj c.c_writes
      in
      if not declared then
        add_report t
          ("breach|" ^ stage
          ^ (match kind with Read -> ":R:" | Write -> ":W:")
          ^ E.obj_name obj)
          (Contract_breach acc));
  let r = E.region obj in
  if r.E.r_atomic then ()
  else if r.E.r_disjoint then
    check_interval t (pcell_of t (flow, E.obj_tag obj)) acc
  else
    check_cell t
      (cell_of t (flow, E.obj_tag obj))
      acc
      ~span:(cur_span t ~stage ~flow)

(* --- Flow lifecycle ------------------------------------------------ *)

let rx_order_name flow = "rx#" ^ string_of_int flow

let flow_init t ~flow =
  List.iter
    (fun o ->
      Hashtbl.remove t.shadow (flow, E.obj_tag o);
      Hashtbl.remove t.pshadow (flow, E.obj_tag o))
    E.all_objs;
  Hashtbl.remove t.open_spans flow;
  Hashtbl.remove t.chans (lock_chan flow);
  Hashtbl.remove t.chans ("arx#" ^ string_of_int flow);
  Hashtbl.remove t.chans ("seq#" ^ rx_order_name flow)

let flow_forget = flow_init

(* --- Tracer constructors ------------------------------------------- *)

let fpc_tracer t ~name =
  {
    Nfp.Fpc.tr_submit = (fun () -> token_send t);
    tr_run =
      (fun ~slot ~token k ->
        run_as t ~thread:(name ^ "." ^ string_of_int slot) ~join:token k);
  }

let dma_tracer t =
  {
    Nfp.Dma.dt_issue = (fun ~queue:_ -> token_send t);
    dt_complete =
      (fun ~queue ~token k ->
        run_as t ~thread:("dmaq" ^ string_of_int queue) ~join:token k);
  }

let seq_tracer t ~name =
  let chan = "seq#" ^ name in
  {
    Sequencer.sq_submit = (fun () -> chan_send t chan);
    sq_release =
      (fun k ->
        chan_recv t chan;
        k ());
  }

let rx_order_tracer t ~flow = seq_tracer t ~name:(rx_order_name flow)

let sch_tracer t =
  let chan conn = "sch#" ^ string_of_int conn in
  {
    Scheduler.sc_signal =
      (fun ~conn ->
        chan_send t (chan conn);
        chan_send t "sch#*");
    sc_dispatch =
      (fun ~conn k ->
        run_as t ~thread:"sch" (fun () ->
            chan_recv t (chan conn);
            chan_recv t "sch#*";
            k ()));
  }

let ring_tracer t ~name =
  let chan = "ring#" ^ name in
  {
    Nfp.Ring.rg_push = (fun () -> chan_send t chan);
    rg_pop = (fun () -> chan_recv t chan);
  }

(* --- Introspection ------------------------------------------------- *)

let reports t = List.rev t.reports
let report_count t = t.n_reports
let accesses t = t.n_accesses
let span_overlaps t = t.span_overlaps
let closed_spans t = t.closed_spans
let set_record_spans t v = t.record_spans <- v
let threads t = t.n_threads
