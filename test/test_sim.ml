(* Simulation-engine substrate tests. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time ----------------------------------------------------------- *)

let test_time_units () =
  check_int "ns" 1_000 (Sim.Time.ns 1);
  check_int "us" 1_000_000 (Sim.Time.us 1);
  check_int "ms" 1_000_000_000 (Sim.Time.ms 1);
  check_int "sec" 2_500_000_000_000 (Sim.Time.sec 2.5);
  Alcotest.(check (float 1e-9)) "to_sec" 1.0 (Sim.Time.to_sec (Sim.Time.sec 1.))

let test_freq_exact () =
  let fpc = Sim.Time.Freq.of_mhz 800 in
  check_int "800MHz period" 1250 (Sim.Time.Freq.ps_per_cycle fpc);
  check_int "100 cycles" 125_000 (Sim.Time.Freq.cycles fpc 100);
  let host = Sim.Time.Freq.of_ghz 2.0 in
  check_int "2GHz period" 500 (Sim.Time.Freq.ps_per_cycle host);
  check_int "to_cycles rounds up" 3 (Sim.Time.Freq.to_cycles host 1001)

let test_freq_invalid () =
  Alcotest.check_raises "non-integral period"
    (Invalid_argument "Freq.of_mhz: period is not a whole number of picoseconds")
    (fun () -> ignore (Sim.Time.Freq.of_mhz 3000))

(* --- Event queue ------------------------------------------------------ *)

let test_queue_ordering () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.push q 30 "c";
  Sim.Event_queue.push q 10 "a";
  Sim.Event_queue.push q 20 "b";
  let pops = List.init 3 (fun _ -> Sim.Event_queue.pop q) in
  Alcotest.(check (list (option (pair int string))))
    "sorted" [ Some (10, "a"); Some (20, "b"); Some (30, "c") ] pops;
  check_bool "empty" true (Sim.Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Sim.Event_queue.create () in
  List.iter (fun v -> Sim.Event_queue.push q 5 v) [ 1; 2; 3; 4 ];
  let order =
    List.init 4 (fun _ ->
        match Sim.Event_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4 ] order

let test_queue_cancel () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.push q 1 "keep1";
  let h = Sim.Event_queue.push_cancellable q 2 "dead" in
  Sim.Event_queue.push q 3 "keep2";
  Sim.Event_queue.cancel q h;
  Sim.Event_queue.cancel q h;  (* double-cancel is a no-op *)
  check_int "length counts live only" 2 (Sim.Event_queue.length q);
  let vs =
    List.init 2 (fun _ ->
        match Sim.Event_queue.pop q with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "cancelled skipped" [ "keep1"; "keep2" ] vs;
  (* cancelling after pop is a no-op *)
  let h2 = Sim.Event_queue.push_cancellable q 4 "x" in
  ignore (Sim.Event_queue.pop q);
  Sim.Event_queue.cancel q h2;
  check_int "no corruption" 0 (Sim.Event_queue.length q)

(* A handle whose entry popped must not cancel the entry that reuses
   its storage. *)
let test_queue_stale_handle () =
  let module Q = Sim.Event_queue in
  let q = Q.create () in
  let stale = Q.push_cancellable q 1 "first" in
  ignore (Q.pop q);
  let h = Q.push_cancellable q 2 "second" in
  Q.cancel q stale;
  check_int "reused entry still live" 1 (Q.length q);
  Alcotest.(check (option (pair int string)))
    "reused entry pops" (Some (2, "second")) (Q.pop q);
  Q.cancel q h;
  check_int "cancel after pop" 0 (Q.length q);
  let h = Q.push_cancellable q 3 "third" in
  Q.cancel q h;
  Q.push q 4 "fourth";
  Q.cancel q h;
  check_int "double cancel" 1 (Q.length q);
  Alcotest.(check (option (pair int string)))
    "cancelled skipped" (Some (4, "fourth")) (Q.pop q)

(* Plain pushes due at the last-popped time take the same-instant
   lane; they must still interleave with heap entries of that time
   by seq. *)
let test_queue_same_instant () =
  let module Q = Sim.Event_queue in
  let q = Q.create () in
  Q.push q 5 "a";
  Q.push q 5 "b";
  Q.push q 9 "z";
  Alcotest.(check (option (pair int string))) "a" (Some (5, "a")) (Q.pop q);
  Q.push q 5 "c";
  let h = Q.push_cancellable q 5 "x" in
  Q.push q 5 "d";
  Q.cancel q h;
  let order =
    List.init 4 (fun _ ->
        match Q.pop q with Some (t, v) -> Printf.sprintf "%s@%d" v t | None -> "-")
  in
  Alcotest.(check (list string))
    "seq order" [ "b@5"; "c@5"; "d@5"; "z@9" ] order;
  (* Many same-instant pushes, popped in waves: the lane wraps and
     grows and stays FIFO. *)
  let q = Q.create () in
  Q.push q 7 0;
  ignore (Q.pop q);
  let next = ref 1 and expect = ref 1 in
  for wave = 1 to 6 do
    for _ = 1 to 10 * wave do
      Q.push q 7 !next;
      incr next
    done;
    for _ = 1 to 7 * wave do
      Alcotest.(check (option (pair int int)))
        "fifo" (Some (7, !expect)) (Q.pop q);
      incr expect
    done
  done;
  check_int "left" (!next - !expect) (Q.length q)

(* Model-based check of the wheel against a plain list. Times are drawn
   from a tiny range so that equal timestamps, and so the seq
   tie-break, decide most pops. Closures push their seq as
   their value; the handler pushes use a pool of four handlers whose
   values are negative, so a pop names the entry it returned either
   way. *)
type now_kind = Now_plain | Now_cancellable | Now_handler of int

type queue_op =
  | Push of int
  | Push_now of now_kind  (* at the last-popped time *)
  | Push_cancellable of int
  | Push_handler of int * int  (* time, handler *)
  | Cancel of int  (* index into the handles issued so far *)
  | Reserve of int * int
      (* time, handler: the key now, [push_reserved] just before the
         next pop *)
  | Pop
  | Pop_next  (* next_time, then pop_next *)
  | Pop_due of int  (* limit *)

let n_queue_handlers = 4
let handler_value i = -1 - i

let queue_op_gen =
  let open QCheck.Gen in
  let time = int_bound 4 and handler = int_bound (n_queue_handlers - 1) in
  frequency
    [
      (3, map (fun t -> Push t) time);
      ( 5,
        map
          (fun k -> Push_now k)
          (frequency
             [
               (3, return Now_plain);
               (1, return Now_cancellable);
               (2, map (fun h -> Now_handler h) handler);
             ]) );
      (2, map (fun t -> Push_cancellable t) time);
      (3, map2 (fun t h -> Push_handler (t, h)) time handler);
      (2, map (fun i -> Cancel i) (int_bound 8));
      (2, map2 (fun t h -> Reserve (t, h)) time handler);
      (2, return Pop);
      (2, return Pop_next);
      (2, map (fun l -> Pop_due l) time);
    ]

let show_queue_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Push_now Now_plain -> "push now"
  | Push_now Now_cancellable -> "push_cancellable now"
  | Push_now (Now_handler h) -> Printf.sprintf "push_handler now h%d" h
  | Push_cancellable t -> Printf.sprintf "push_cancellable %d" t
  | Push_handler (t, h) -> Printf.sprintf "push_handler %d h%d" t h
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Reserve (t, h) -> Printf.sprintf "reserve %d h%d" t h
  | Pop -> "pop"
  | Pop_next -> "pop_next"
  | Pop_due l -> Printf.sprintf "pop_due %d" l

let prop_queue_model =
  QCheck.Test.make ~name:"event queue matches a sorted-list model" ~count:500
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops))
        Gen.(list_size (int_range 0 120) queue_op_gen))
    (fun ops ->
      let module Q = Sim.Event_queue in
      let q = Q.create () in
      let handlers =
        Array.init n_queue_handlers (fun i -> Q.register q (handler_value i))
      in
      (* Model entries are (time, seq, value). *)
      let model = ref [] and seq = ref 0 in
      let handles = ref [||] in
      let add ?value time =
        let s = !seq in
        incr seq;
        let v = Option.value value ~default:s in
        model := List.sort compare ((time, s, v) :: !model);
        v
      in
      let add_handler time h = ignore (add ~value:(handler_value h) time) in
      (* The time of the last pop: what "now" is to the wheel. *)
      let now = ref 0 in
      let model_pop () =
        match !model with
        | [] -> None
        | (t, _, v) :: rest ->
            model := rest;
            now := t;
            Some (t, v)
      in
      let push_cancellable t =
        let s = add t in
        handles := Array.append !handles [| (Q.push_cancellable q t s, s) |]
      in
      let push_handler t h =
        add_handler t h;
        Q.push_handler q t handlers.(h)
      in
      (* Reserved keys wait here, newest first, until the next pop;
         they are pushed newest first, so the pop order cannot come
         from the push order. *)
      let reserved = ref [] in
      let push_reserved () =
        List.iter
          (fun (t, key, h) -> Q.push_reserved q t ~key handlers.(h))
          !reserved;
        reserved := []
      in
      let step op =
        (match op with
        | Pop | Pop_next | Pop_due _ -> push_reserved ()
        | _ -> ());
        (match op with
        | Push t -> Q.push q t (add t)
        | Push_now Now_plain -> Q.push q !now (add !now)
        | Push_now Now_cancellable -> push_cancellable !now
        | Push_now (Now_handler h) -> push_handler !now h
        | Push_cancellable t -> push_cancellable t
        | Push_handler (t, h) -> push_handler t h
        | Cancel i ->
            if i < Array.length !handles then begin
              let h, s = !handles.(i) in
              Q.cancel q h;
              model := List.filter (fun (_, s', _) -> s' <> s) !model
            end
        | Reserve (t, h) ->
            let key = Q.reserve q in
            add_handler t h;
            reserved := (t, key, h) :: !reserved
        | Pop -> if Q.pop q <> model_pop () then QCheck.Test.fail_report "pop"
        | Pop_next ->
            let expected = model_pop () in
            let t = Q.next_time q in
            let got = if Q.is_empty q then None else Some (t, Q.pop_next q) in
            if got <> expected then QCheck.Test.fail_report "pop_next"
        | Pop_due limit ->
            let expected =
              match !model with
              | (t, _, _) :: _ when t <= limit -> model_pop ()
              | _ -> None
            in
            let v = Q.pop_due q ~limit ~none:max_int in
            let got = if v = max_int then None else Some (Q.last_pop q, v) in
            if got <> expected then QCheck.Test.fail_report "pop_due");
        let held = List.length !reserved in
        if Q.length q + held <> List.length !model then
          QCheck.Test.fail_reportf "length %d + %d reserved, model %d"
            (Q.length q) held (List.length !model);
        let model_next =
          match !model with (t, _, _) :: _ -> t | [] -> max_int
        in
        if held = 0 && Q.next_time q <> model_next then
          QCheck.Test.fail_reportf "next_time %d, model %d" (Q.next_time q)
            model_next
      in
      List.iter step ops;
      push_reserved ();
      (* Drain what is left: the whole pop sequence must match. *)
      let rec drain () =
        let expected = model_pop () in
        if Q.pop q <> expected then QCheck.Test.fail_report "drain";
        if expected <> None then drain ()
      in
      drain ();
      Q.next_time q = max_int)

(* A handler belongs to the wheel, and so to the LP, that registered
   it. *)
let test_handler_foreign_wheel () =
  let module Q = Sim.Event_queue in
  let a = Q.create () and b = Q.create () in
  let h = Q.register a "a" in
  let foreign = Invalid_argument "Event_queue: handler registered on another wheel" in
  Alcotest.check_raises "push" foreign (fun () -> Q.push_handler b 1 h);
  let key = Q.reserve b in
  Alcotest.check_raises "push_reserved" foreign (fun () ->
      Q.push_reserved b 1 ~key h);
  check_int "nothing queued" 0 (Q.length b);
  let e1 = Sim.Engine.create () and e2 = Sim.Engine.create () in
  let fired = ref 0 in
  let h1 = Sim.Engine.register e1 (fun () -> incr fired) in
  Alcotest.check_raises "another LP" foreign (fun () ->
      Sim.Engine.schedule_handler e2 5 h1);
  Sim.Engine.schedule_handler e1 5 h1;
  Sim.Engine.schedule_handler e1 0 h1;
  Sim.Engine.set_handler h1 (fun () -> fired := !fired + 10);
  Sim.Engine.run e1;
  Sim.Engine.run e2;
  check_int "both pops run the callback set last" 20 !fired;
  check_int "clock" 5 (Sim.Engine.now e1);
  check_int "the other LP ran nothing" 0 (Sim.Engine.events_processed e2)

(* Popped values must become unreachable: a vacated slot may hold
   neither the popped callback nor any other pushed value. *)
let fill_capturing q registry n =
  for i = 0 to n - 1 do
    let block = Bytes.make 64 (Char.chr (i land 0xff)) in
    Weak.set registry i (Some block);
    Sim.Event_queue.push q (i * 7919 mod 97) (fun () ->
        ignore (Sys.opaque_identity (Bytes.length block)))
  done

let drain_calling q =
  while not (Sim.Event_queue.is_empty q) do
    let k = Sim.Event_queue.pop_next q in
    k ()
  done

let retained registry =
  Gc.full_major ();
  let n = ref 0 in
  for i = 0 to Weak.length registry - 1 do
    if Weak.check registry i then incr n
  done;
  !n

let test_queue_releases_popped () =
  let n = 200 in
  let q = Sim.Event_queue.create () and registry = Weak.create n in
  fill_capturing q registry n;
  drain_calling q;
  check_int "blocks still reachable after every pop" 0 (retained registry);
  ignore (Sys.opaque_identity q)

(* Handler entries share the heap and the lane with closures; the
   closures' slots and lane cells must still be cleared. Each handler
   pop pushes a capturing closure due now (the lane) and, while any
   are left, the handler again one tick later (the heap). *)
let test_queue_mixed_releases_popped () =
  let module Q = Sim.Event_queue in
  let n = 200 in
  let q = Q.create () and registry = Weak.create (2 * n) in
  fill_capturing q registry n;
  let next = ref n and h = Q.register q ignore in
  Q.set_handler h (fun () ->
      if !next < 2 * n then begin
        let i = !next in
        incr next;
        let block = Bytes.make 64 (Char.chr (i land 0xff)) in
        Weak.set registry i (Some block);
        Q.push q (Q.last_pop q) (fun () ->
            ignore (Sys.opaque_identity (Bytes.length block)));
        Q.push_handler q (Q.last_pop q + 1) h
      end);
  Q.push_handler q 0 h;
  drain_calling q;
  check_int "every tick ran" (2 * n) !next;
  check_int "blocks still reachable after every pop" 0 (retained registry);
  ignore (Sys.opaque_identity q)

(* --- Fifo ------------------------------------------------------------- *)

let fifo_to_list q = List.rev (Sim.Fifo.fold (fun acc x -> x :: acc) [] q)

let test_fifo_wrap_and_growth () =
  let q = Sim.Fifo.create () in
  for i = 0 to 5 do Sim.Fifo.push i q done;
  for i = 0 to 3 do check_int "pop" i (Sim.Fifo.pop q) done;
  (* The head has moved on: these pushes wrap past the ring's end, and
     the ring grows while wrapped. *)
  for i = 6 to 40 do Sim.Fifo.push i q done;
  check_int "length" 37 (Sim.Fifo.length q);
  Alcotest.(check (list int)) "in push order" (List.init 37 (fun i -> i + 4))
    (fifo_to_list q);
  for i = 4 to 40 do check_int "pop in order" i (Sim.Fifo.pop q) done;
  check_bool "drained" true (Sim.Fifo.is_empty q)

let test_fifo_empty () =
  let q = Sim.Fifo.create () in
  let raises_empty f =
    match f q with _ -> false | exception Sim.Fifo.Empty -> true
  in
  let check_empty what =
    check_bool (what ^ ": peek raises") true (raises_empty Sim.Fifo.peek);
    check_bool (what ^ ": pop raises") true (raises_empty Sim.Fifo.pop);
    check_bool (what ^ ": take_opt") true (Sim.Fifo.take_opt q = None);
    check_int (what ^ ": length") 0 (Sim.Fifo.length q)
  in
  check_empty "fresh";
  Sim.Fifo.push "a" q;
  Alcotest.(check string) "peek leaves the head" "a" (Sim.Fifo.peek q);
  check_int "length after peek" 1 (Sim.Fifo.length q);
  check_bool "take_opt" true (Sim.Fifo.take_opt q = Some "a");
  check_empty "drained"

let test_fifo_iter_fold_clear () =
  let q = Sim.Fifo.create () in
  for i = 1 to 6 do Sim.Fifo.push i q done;
  ignore (Sim.Fifo.pop q);
  ignore (Sim.Fifo.pop q);
  for i = 7 to 10 do Sim.Fifo.push i q done;
  let seen = ref [] in
  Sim.Fifo.iter (fun x -> seen := x :: !seen) q;
  Alcotest.(check (list int)) "iter head to tail" [ 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !seen);
  check_int "fold" (3 + 4 + 5 + 6 + 7 + 8 + 9 + 10)
    (Sim.Fifo.fold ( + ) 0 q);
  Sim.Fifo.clear q;
  check_bool "cleared" true (Sim.Fifo.is_empty q);
  check_bool "nothing left" true (Sim.Fifo.take_opt q = None);
  check_int "fold over nothing" 0 (Sim.Fifo.fold ( + ) 0 q);
  Sim.Fifo.push 11 q;
  Sim.Fifo.push 12 q;
  Alcotest.(check (list int)) "usable after clear" [ 11; 12 ] (fifo_to_list q)

let prop_fifo_matches_queue =
  QCheck.Test.make ~name:"fifo matches Stdlib.Queue" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (option small_nat))
    (fun ops ->
      let q = Sim.Fifo.create () and model = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Some x ->
              Sim.Fifo.push x q;
              Queue.push x model
          | None ->
              if Sim.Fifo.take_opt q <> Queue.take_opt model then
                QCheck.Test.fail_report "pop");
          Sim.Fifo.length q = Queue.length model
          && fifo_to_list q = List.of_seq (Queue.to_seq model))
        ops)

(* A popped or cleared value is no longer reachable from the queue. *)
let test_fifo_releases () =
  let n = 20 in
  let q = Sim.Fifo.create () and registry = Weak.create n in
  let fill () =
    for i = 0 to n - 1 do
      let block = Bytes.make 64 (Char.chr i) in
      Weak.set registry i (Some block);
      Sim.Fifo.push block q
    done
  in
  let retained () =
    Gc.full_major ();
    List.length (List.filter (Weak.check registry) (List.init n Fun.id))
  in
  fill ();
  for _ = 1 to n do ignore (Sim.Fifo.pop q) done;
  check_int "popped values still reachable" 0 (retained ());
  fill ();
  Sim.Fifo.clear q;
  check_int "cleared values still reachable" 0 (retained ());
  ignore (Sys.opaque_identity q)

(* Words promoted per word allocated while [n] MSS-sized buffers pass,
   one in flight, through a queue that already lives in the major
   heap. *)
let promoted_share ~push ~pop q =
  let n = 100_000 in
  push (Bytes.create 1448) q;
  Gc.full_major ();
  let minor0, promoted0, _ = Gc.counters () in
  for _ = 1 to n do
    push (Bytes.create 1448) q;
    ignore (Sys.opaque_identity (pop q))
  done;
  let minor1, promoted1, _ = Gc.counters () in
  ignore (Sys.opaque_identity (pop q));
  (promoted1 -. promoted0) /. (minor1 -. minor0)

let test_fifo_promotion () =
  let fifo =
    promoted_share ~push:Sim.Fifo.push ~pop:Sim.Fifo.pop (Sim.Fifo.create ())
  in
  check_bool
    (Printf.sprintf "Fifo promotes %.4f of the words allocated (< 1%%)" fifo)
    true (fifo < 0.01);
  (* The same traffic through [Stdlib.Queue]: the popped cells stay
     linked from the promoted one, so nearly everything is promoted.
     This is what the measurement exists to catch. *)
  let queue =
    promoted_share ~push:Queue.push ~pop:Queue.pop (Queue.create ())
  in
  check_bool
    (Printf.sprintf "Stdlib.Queue promotes %.4f (> 50%%)" queue)
    true (queue > 0.5)

(* --- Engine ----------------------------------------------------------- *)

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let hits = ref [] in
  Sim.Engine.schedule e (Sim.Time.us 10) (fun () -> hits := 10 :: !hits);
  Sim.Engine.schedule e (Sim.Time.us 30) (fun () -> hits := 30 :: !hits);
  Sim.Engine.run ~until:(Sim.Time.us 20) e;
  Alcotest.(check (list int)) "only first fired" [ 10 ] !hits;
  check_int "clock advanced to until" (Sim.Time.us 20) (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "second fired" [ 30; 10 ] !hits

(* A run cut short by its event budget must not move the clock past
   the events it left queued. *)
let test_engine_run_budget_clock () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  List.iter
    (fun at ->
      Sim.Engine.schedule_at e at (fun () -> seen := Sim.Engine.now e :: !seen))
    [ 10; 20; 30 ];
  Sim.Engine.run ~until:100 ~max_events:1 e;
  check_int "clock at the last event run" 10 (Sim.Engine.now e);
  Sim.Engine.run ~until:100 e;
  Alcotest.(check (list int)) "each event at its own time" [ 10; 20; 30 ]
    (List.rev !seen);
  check_int "clock advanced to until" 100 (Sim.Engine.now e)

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e 100 (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule e 50 (fun () -> log := "inner" :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested" [ "inner"; "outer" ] !log;
  check_int "final time" 150 (Sim.Engine.now e)

let test_engine_max_events_per_call () =
  let e = Sim.Engine.create () in
  let calls = ref 0 in
  for i = 1 to 10 do
    Sim.Engine.schedule e i (fun () -> incr calls)
  done;
  Sim.Engine.run ~max_events:3 e;
  Sim.Engine.run ~max_events:3 e;
  check_int "each run dispatches its own budget" 6 !calls;
  check_int "the rest stays queued" 4 (Sim.Engine.pending e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule_cancellable e 100 (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  check_bool "cancelled never fires" false !fired

let test_engine_past_raises () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e 100 (fun () ->
      Alcotest.check_raises "past scheduling"
        (Invalid_argument
           "Engine.schedule_at: 50ps is in the past (now 100ps)") (fun () ->
          Sim.Engine.schedule_at e 50 ignore));
  Sim.Engine.run e

(* --- Monotone streams --------------------------------------------------- *)

let test_stream_contract () =
  let module St = Sim.Engine.Stream in
  let e = Sim.Engine.create () in
  let s = St.create e in
  let log = ref [] in
  St.schedule_at s 10 (fun () -> log := "s10" :: !log);
  St.schedule_at s 10 (fun () -> log := "s10'" :: !log);
  Sim.Engine.schedule_at e 10 (fun () -> log := "p10" :: !log);
  St.schedule_at s 30 (fun () -> log := "s30" :: !log);
  check_int "pending counts entries held behind the head" 4
    (Sim.Engine.pending e);
  Alcotest.check_raises "below the stream's last time"
    (Invalid_argument
       "Engine.Stream.schedule_at: 20ps is before now (0ps) or the \
        stream's last time (30ps)") (fun () -> St.schedule_at s 20 ignore);
  check_int "a rejected entry is not queued" 4 (Sim.Engine.pending e);
  Sim.Engine.run ~until:15 e;
  Alcotest.(check (list string))
    "schedule order at one instant" [ "s10"; "s10'"; "p10" ] (List.rev !log);
  check_int "one entry left" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check_int "now" 30 (Sim.Engine.now e);
  check_int "events" 4 (Sim.Engine.events_processed e);
  Alcotest.check_raises "below now"
    (Invalid_argument
       "Engine.Stream.schedule_at: 29ps is before now (30ps) or the \
        stream's last time (30ps)") (fun () -> St.schedule_at s 29 ignore);
  St.schedule s (-5) (fun () -> log := "now" :: !log);
  Sim.Engine.run e;
  check_int "a negative delay means now" 30 (Sim.Engine.now e);
  check_int "drained" 0 (Sim.Engine.pending e)

(* Model-based: one random script runs twice on a solo engine. In the
   reference every event is an ordinary wheel entry; in the other run
   the stream ops use two [Engine.Stream]s. Plain, cancellable, cancel
   and stream ops are drawn from the script as events run. The runs
   must log the same (time, id, pending) at every event and count the
   same events. *)
type stream_op =
  | S_plain of int  (* delay *)
  | S_cancellable of int
  | S_cancel of int  (* index into the handles issued so far *)
  | S_stream of int * int  (* stream, gap after max(now, its last) *)

let stream_op_gen =
  let open QCheck.Gen in
  let delay = int_bound 3 in
  frequency
    [
      (3, map (fun d -> S_plain d) delay);
      (2, map (fun d -> S_cancellable d) delay);
      (1, map (fun i -> S_cancel i) (int_bound 6));
      (5, map2 (fun s g -> S_stream (s, g)) (int_bound 1) (int_bound 2));
    ]

let show_stream_op = function
  | S_plain d -> Printf.sprintf "plain +%d" d
  | S_cancellable d -> Printf.sprintf "cancellable +%d" d
  | S_cancel i -> Printf.sprintf "cancel #%d" i
  | S_stream (s, g) -> Printf.sprintf "stream%d +%d" s g

let run_stream_script ~streams ops =
  let module E = Sim.Engine in
  let lp = E.create () in
  let ops = Array.of_list ops in
  let cursor = ref 0 and next_id = ref 0 and log = ref [] in
  let handles = ref [||] in
  let st = [| E.Stream.create lp; E.Stream.create lp |] in
  let last = [| 0; 0 |] in
  let rec event () =
    let id = !next_id in
    incr next_id;
    fun () ->
      log := (E.now lp, id, E.pending lp) :: !log;
      run_ops 2
  and run_ops n =
    if n > 0 && !cursor < Array.length ops then begin
      let op = ops.(!cursor) in
      incr cursor;
      (match op with
      | S_plain d -> E.schedule lp d (event ())
      | S_cancellable d ->
          let h = E.schedule_cancellable lp d (event ()) in
          handles := Array.append !handles [| h |]
      | S_cancel i ->
          let n = Array.length !handles in
          if n > 0 then E.cancel lp !handles.(i mod n)
      | S_stream (i, g) ->
          let time = Int.max (E.now lp) last.(i) + g in
          last.(i) <- time;
          if streams then E.Stream.schedule_at st.(i) time (event ())
          else E.schedule_at lp time (event ()));
      run_ops (n - 1)
    end
  in
  run_ops 4;
  E.run ~until:1_000_000 lp;
  (List.rev !log, E.events_processed lp, E.pending lp)

let prop_stream_matches_heap =
  QCheck.Test.make ~name:"streams pop in the order of an all-heap reference"
    ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_stream_op ops))
        Gen.(list_size (int_range 0 150) stream_op_gen))
    (fun ops ->
      let with_streams = run_stream_script ~streams:true ops in
      let reference = run_stream_script ~streams:false ops in
      let _, _, pending = with_streams in
      with_streams = reference && pending = 0)

(* --- RNG ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 99L and b = Sim.Rng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next64 a) (Sim.Rng.next64 b)
  done

let test_rng_bounds () =
  let r = Sim.Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17);
    let f = Sim.Rng.float r 2.5 in
    check_bool "float range" true (f >= 0. && f < 2.5)
  done

let test_rng_bool_rate () =
  let r = Sim.Rng.create 13L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Sim.Rng.bool r 0.02 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "2% +- 0.5%" true (rate > 0.015 && rate < 0.025)

(* The first outputs of each way to make a generator, as splitmix64
   gives them: a change to how the state is stored must not move a
   single draw. *)
let test_rng_pinned_outputs () =
  let pins =
    [
      (0L, "create", [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ], 611, 0x1.b39896a51a87p-4, true);
      (0L, "split", [ -6411193824288604561L; -5511663747979980962L; 7141179953334974231L ], 609, 0x1.936b5c20cd31ep-1, true);
      (0L, "stream", [ 5629846650018757432L; -6636457705877975743L; -8187234709408407387L ], 194, 0x1.1b2bf34a8fffp-3, false);
      (42L, "create", [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ], 941, 0x1.378b0b448904p-5, false);
      (42L, "split", [ 6332618229526065668L; -816328817471504299L; 8971565426155258802L ], 674, 0x1.5a94b320c5fa2p-1, true);
      (42L, "stream", [ 3676294358273406211L; 8857862703798441688L; 1204335706493366942L ], 949, 0x1.4e2aadab2288ap-1, false);
      (-7L, "create", [ 7790691224305936752L; 8829294814793142954L; -1715519743840680431L ], 472, 0x1.21bef7b15d6efp-1, false);
      (-7L, "split", [ 1533972906235141153L; 6759016261732985689L; 3304354537809254571L ], 991, 0x1.f3aaa7d50305p-2, false);
      (-7L, "stream", [ -346580035362130434L; -1610868779559996261L; 7222378427977658783L ], 38, 0x1.01a3193bcdb84p-3, true);
    ]
  in
  List.iter
    (fun (seed, how, raw, i, f, b) ->
      let r =
        match how with
        | "create" -> Sim.Rng.create seed
        | "split" -> Sim.Rng.split (Sim.Rng.create seed)
        | _ -> Sim.Rng.stream ~seed ~key:3
      in
      let name = Printf.sprintf "%s %Ld" how seed in
      List.iter
        (fun want -> Alcotest.(check int64) name want (Sim.Rng.next64 r))
        raw;
      check_int (name ^ " int") i (Sim.Rng.int r 1000);
      Alcotest.(check (float 0.)) (name ^ " float") f (Sim.Rng.float r 1.0);
      check_bool (name ^ " bool") b (Sim.Rng.bool r 0.5))
    pins

(* A draw allocates nothing: hosts draw once per job and the fabric
   once per frame on a lossy link. *)
let test_rng_draw_allocation () =
  let r = Sim.Rng.create 5L in
  let hits = ref 0 in
  let draws n =
    for i = 1 to n do
      if Sim.Rng.bool r 0.5 then incr hits;
      if Sim.Rng.int r 7 = i land 7 then incr hits;
      if Sim.Rng.float r 2.0 < 1.0 then incr hits
    done
  in
  draws 100;
  let n = 10_000 in
  let before = Gc.minor_words () in
  draws n;
  let words = (Gc.minor_words () -. before) /. float_of_int (3 * n) in
  check_bool "some hits" true (!hits > 0);
  if words > 0.01 then
    Alcotest.failf "%.2f minor words per draw (bound 0.01)" words

(* --- Stats ----------------------------------------------------------------- *)

let test_histogram_exact_small () =
  let h = Sim.Stats.Histogram.create () in
  List.iter (Sim.Stats.Histogram.add h) [ 1; 2; 3; 4; 5 ];
  check_int "min" 1 (Sim.Stats.Histogram.min h);
  check_int "max" 5 (Sim.Stats.Histogram.max h);
  check_int "p50" 3 (Sim.Stats.Histogram.percentile h 50.);
  check_int "p100" 5 (Sim.Stats.Histogram.percentile h 100.);
  Alcotest.(check (float 0.001)) "mean" 3.0 (Sim.Stats.Histogram.mean h)

let prop_histogram_bounds =
  QCheck.Test.make
    ~name:"histogram percentile error is within bucket resolution"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 500) (int_bound 1_000_000))
    (fun samples ->
      samples = []
      ||
      let h = Sim.Stats.Histogram.create () in
      List.iter (Sim.Stats.Histogram.add h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      List.for_all
        (fun p ->
          (* Same nearest-rank convention as the histogram. *)
          let n = Array.length sorted in
          let rank =
            let r = int_of_float (Float.round (p /. 100. *. float_of_int n)) in
            max 1 (min n r)
          in
          let exact = sorted.(rank - 1) in
          let est = Sim.Stats.Histogram.percentile h p in
          (* within 2x bucket resolution (1.6%) or tiny absolute *)
          abs (est - exact) <= max 4 (exact / 16))
        [ 50.; 90.; 99. ])

let test_histogram_merge () =
  let a = Sim.Stats.Histogram.create () in
  let b = Sim.Stats.Histogram.create () in
  Sim.Stats.Histogram.add a 10;
  Sim.Stats.Histogram.add b 1000;
  Sim.Stats.Histogram.merge a b;
  check_int "count" 2 (Sim.Stats.Histogram.count a);
  check_int "min" 10 (Sim.Stats.Histogram.min a);
  check_int "max" 1000 (Sim.Stats.Histogram.max a)

let test_jain () =
  Alcotest.(check (float 1e-9)) "equal shares" 1.0
    (Sim.Stats.jain_fairness [| 5.; 5.; 5.; 5. |]);
  Alcotest.(check (float 1e-9)) "one hog" 0.25
    (Sim.Stats.jain_fairness [| 4.; 0.; 0.; 0. |]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Sim.Stats.jain_fairness [||])

let test_meter () =
  let m = Sim.Stats.Meter.create () in
  Sim.Stats.Meter.record m ~bytes:1_000_000 ~ops:10 ();
  Alcotest.(check (float 0.001)) "gbps" 8.0
    (Sim.Stats.Meter.gbps m ~duration:(Sim.Time.ms 1));
  Alcotest.(check (float 0.001)) "mops" 0.01
    (Sim.Stats.Meter.mops m ~duration:(Sim.Time.ms 1))

(* --- Trace -------------------------------------------------------------------- *)

let test_trace_registry () =
  let t = Sim.Trace.create () in
  let p1 = Sim.Trace.register t ~group:"proto" "rx" in
  let _p2 = Sim.Trace.register t ~group:"proto" "tx" in
  let _p3 = Sim.Trace.register t ~group:"dma" "desc" in
  check_int "enable group" 2 (Sim.Trace.enable t ~group:"proto" ());
  Sim.Trace.hit p1;
  Sim.Trace.hit p1;
  check_int "hits recorded" 2 (Sim.Trace.hits p1);
  check_int "enable all" 3 (Sim.Trace.enable t ());
  check_int "disable one" 2 (Sim.Trace.disable t ~group:"dma" ~name:"desc" ());
  check_int "group count" 2 (Sim.Trace.group_enabled t "proto");
  check_int "disabled group" 0 (Sim.Trace.group_enabled t "dma");
  check_int "unknown group" 0 (Sim.Trace.group_enabled t "nbi");
  check_bool "find by name" true (Sim.Trace.find t ~group:"proto" "rx" == p1);
  check_int "registered" 3 (List.length (Sim.Trace.points t))

(* --- Histogram _opt / empty behaviour ----------------------------------- *)

let test_histogram_empty_opt () =
  let h = Sim.Stats.Histogram.create () in
  Alcotest.(check (option int)) "min_opt" None (Sim.Stats.Histogram.min_opt h);
  Alcotest.(check (option int)) "max_opt" None (Sim.Stats.Histogram.max_opt h);
  Alcotest.(check (option int)) "percentile_opt" None
    (Sim.Stats.Histogram.percentile_opt h 50.);
  check_int "legacy min reads 0" 0 (Sim.Stats.Histogram.min h);
  check_int "legacy percentile reads 0" 0
    (Sim.Stats.Histogram.percentile h 99.);
  Sim.Stats.Histogram.add h 7;
  Alcotest.(check (option int)) "min_opt after add" (Some 7)
    (Sim.Stats.Histogram.min_opt h)

let test_histogram_p0_p100 () =
  let h = Sim.Stats.Histogram.create () in
  List.iter (Sim.Stats.Histogram.add h) [ 3; 9; 40; 1000; 123_456 ];
  (* p0 is the observed minimum, p100 the observed maximum — exactly,
     despite log bucketing (results clamp to the observed range). *)
  check_int "p0" 3 (Sim.Stats.Histogram.percentile h 0.);
  check_int "p100" 123_456 (Sim.Stats.Histogram.percentile h 100.);
  Alcotest.(check (option int)) "p0 opt" (Some 3)
    (Sim.Stats.Histogram.percentile_opt h 0.);
  Alcotest.(check (option int)) "p100 opt" (Some 123_456)
    (Sim.Stats.Histogram.percentile_opt h 100.)

let test_histogram_merge_after_reset () =
  let a = Sim.Stats.Histogram.create () in
  let b = Sim.Stats.Histogram.create () in
  Sim.Stats.Histogram.add a 5;
  Sim.Stats.Histogram.add b 50;
  Sim.Stats.Histogram.reset a;
  (* Merging into a reset histogram must not resurrect stale min/max. *)
  Sim.Stats.Histogram.merge a b;
  check_int "count" 1 (Sim.Stats.Histogram.count a);
  check_int "min" 50 (Sim.Stats.Histogram.min a);
  check_int "max" 50 (Sim.Stats.Histogram.max a);
  (* Merging an empty (reset) source is a no-op. *)
  Sim.Stats.Histogram.reset b;
  Sim.Stats.Histogram.merge a b;
  check_int "count after empty merge" 1 (Sim.Stats.Histogram.count a);
  check_int "min after empty merge" 50 (Sim.Stats.Histogram.min a)

let suite =
  [
    Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "frequency arithmetic" `Quick test_freq_exact;
    Alcotest.test_case "invalid frequency" `Quick test_freq_invalid;
    Alcotest.test_case "event queue ordering" `Quick test_queue_ordering;
    Alcotest.test_case "event queue FIFO ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "event queue cancel" `Quick test_queue_cancel;
    Alcotest.test_case "event queue stale handle" `Quick
      test_queue_stale_handle;
    Alcotest.test_case "event queue same-instant lane" `Quick
      test_queue_same_instant;
    QCheck_alcotest.to_alcotest prop_queue_model;
    Alcotest.test_case "event queue handler bound to its wheel" `Quick
      test_handler_foreign_wheel;
    Alcotest.test_case "event queue releases popped values" `Quick
      test_queue_releases_popped;
    Alcotest.test_case "event queue with handlers releases popped closures"
      `Quick test_queue_mixed_releases_popped;
    Alcotest.test_case "fifo order across wrap and growth" `Quick
      test_fifo_wrap_and_growth;
    Alcotest.test_case "fifo empty" `Quick test_fifo_empty;
    Alcotest.test_case "fifo iter, fold and clear" `Quick
      test_fifo_iter_fold_clear;
    QCheck_alcotest.to_alcotest prop_fifo_matches_queue;
    Alcotest.test_case "fifo releases popped and cleared values" `Quick
      test_fifo_releases;
    Alcotest.test_case "fifo popped buffers are not promoted" `Quick
      test_fifo_promotion;
    Alcotest.test_case "engine run until" `Quick test_engine_run_until;
    Alcotest.test_case "engine run budget keeps the clock" `Quick
      test_engine_run_budget_clock;
    Alcotest.test_case "engine nested scheduling" `Quick
      test_engine_nested_schedule;
    Alcotest.test_case "engine max_events counts per run" `Quick
      test_engine_max_events_per_call;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine rejects the past" `Quick
      test_engine_past_raises;
    Alcotest.test_case "stream contract" `Quick test_stream_contract;
    QCheck_alcotest.to_alcotest prop_stream_matches_heap;
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng bernoulli rate" `Quick test_rng_bool_rate;
    Alcotest.test_case "rng pinned outputs" `Quick test_rng_pinned_outputs;
    Alcotest.test_case "rng draw allocation" `Quick test_rng_draw_allocation;
    Alcotest.test_case "histogram small values exact" `Quick
      test_histogram_exact_small;
    QCheck_alcotest.to_alcotest prop_histogram_bounds;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram empty _opt queries" `Quick
      test_histogram_empty_opt;
    Alcotest.test_case "histogram p0/p100" `Quick test_histogram_p0_p100;
    Alcotest.test_case "histogram merge after reset" `Quick
      test_histogram_merge_after_reset;
    Alcotest.test_case "jain fairness index" `Quick test_jain;
    Alcotest.test_case "throughput meter" `Quick test_meter;
    Alcotest.test_case "tracepoint registry" `Quick test_trace_registry;
  ]
