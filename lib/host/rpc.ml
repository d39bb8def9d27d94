module Stats = struct
  type t = {
    engine : Sim.Engine.t;
    rtt : Sim.Stats.Histogram.t;  (* nanoseconds *)
    mutable ops : int;
    mutable bytes : int;
    mutable measuring : bool;
    mutable window_start : Sim.Time.t;
    per_conn : (int, int ref) Hashtbl.t;
  }

  let create engine =
    {
      engine;
      rtt = Sim.Stats.Histogram.create ();
      ops = 0;
      bytes = 0;
      measuring = false;
      window_start = Sim.Time.zero;
      per_conn = Hashtbl.create 64;
    }

  let start_measuring t =
    t.measuring <- true;
    t.window_start <- Sim.Engine.now t.engine

  let record_rtt t rtt =
    if t.measuring then
      Sim.Stats.Histogram.add t.rtt (int_of_float (Sim.Time.to_ns rtt))

  let record_op t ~bytes =
    if t.measuring then begin
      t.ops <- t.ops + 1;
      t.bytes <- t.bytes + bytes
    end

  let record_conn_op t ~conn ~bytes =
    record_op t ~bytes;
    if t.measuring then begin
      let r =
        match Hashtbl.find_opt t.per_conn conn with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.replace t.per_conn conn r;
            r
      in
      incr r
    end

  let ops t = t.ops

  let measured_duration t =
    if t.measuring then Sim.Engine.now t.engine - t.window_start else 0

  let mops t =
    let d = measured_duration t in
    if d <= 0 then 0. else float_of_int t.ops /. Sim.Time.to_sec d /. 1e6

  let gbps t =
    let d = measured_duration t in
    if d <= 0 then 0.
    else float_of_int (8 * t.bytes) /. Sim.Time.to_sec d /. 1e9

  let rtt_percentile_us t p =
    match Sim.Stats.Histogram.percentile_opt t.rtt p with
    | Some v -> float_of_int v /. 1e3
    | None -> Float.nan

  let conn_throughputs t =
    Hashtbl.fold (fun _ r acc -> float_of_int !r :: acc) t.per_conn []
    |> Array.of_list

  let jain_index t = Sim.Stats.jain_fairness (conn_throughputs t)
end

let echo_handler req = req
let const_handler n _req = Bytes.make n 'R'

let server ~endpoint ~port ~app_cycles ~handler () =
  endpoint.Api.listen ~port ~on_accept:(fun sock ->
      let decoder = Framing.create () in
      (* Responses can exceed the socket buffer: keep an app-side
         backlog and flush it as transmit space frees up. *)
      let backlog = ref [] in
      let flush () =
        let rec go () =
          match !backlog with
          | [] -> ()
          | (msg, off) :: rest ->
              let remaining = Bytes.length msg - off in
              let attempt =
                Int.min remaining (Int.max 0 (sock.Api.tx_space ()))
              in
              if attempt > 0 then begin
                let n = sock.Api.send (Bytes.sub msg off attempt) in
                if n = remaining then begin
                  backlog := rest;
                  go ()
                end
                else if n > 0 then backlog := (msg, off + n) :: rest
              end
        in
        go ()
      in
      sock.Api.on_writable <- flush;
      let process req =
        Host_cpu.exec sock.Api.core ~category:"app" ~cycles:app_cycles
          (fun () ->
            backlog := !backlog @ [ (Framing.encode (handler req), 0) ];
            flush ())
      in
      sock.Api.on_readable <-
        (fun () ->
          let chunk = sock.Api.recv ~max:max_int in
          Framing.push decoder chunk;
          Framing.iter_available decoder process))

type conn_state = {
  conn_id : int;
  sock : Api.socket;
  decoder : Framing.t;
  sent_at : Sim.Time.t Sim.Fifo.t;  (* send time of outstanding requests *)
  mutable backlog : (Bytes.t * int) list;
      (* app-side queue of (message, bytes already sent); messages can
         exceed the socket buffer, so sends may be partial *)
}

type client = {
  mutable conns : conn_state list;
  mutable n_connected : int;
}

let connected c = c.n_connected

let flush_backlog cs =
  let rec go () =
    match cs.backlog with
    | [] -> ()
    | (msg, off) :: rest ->
        let remaining = Bytes.length msg - off in
        (* Slice only what can be accepted, so a message much larger
           than the socket buffer is not re-copied on every flush. *)
        let attempt = Int.min remaining (Int.max 0 (cs.sock.Api.tx_space ())) in
        if attempt > 0 then begin
          let n = cs.sock.Api.send (Bytes.sub msg off attempt) in
          if n = remaining then begin
            cs.backlog <- rest;
            go ()
          end
          else if n > 0 then cs.backlog <- (msg, off + n) :: rest
        end
  in
  go ()

let make_conn ~engine ~stats ?(on_response = fun ~conn:_ _ -> ())
    ~on_resp_complete conn_id sock =
  let cs =
    {
      conn_id;
      sock;
      decoder = Framing.create ();
      sent_at = Sim.Fifo.create ();
      backlog = [];
    }
  in
  sock.Api.on_readable <-
    (fun () ->
      let chunk = sock.Api.recv ~max:max_int in
      Framing.push cs.decoder chunk;
      Framing.iter_available cs.decoder (fun resp ->
          (match Sim.Fifo.take_opt cs.sent_at with
          | Some t0 ->
              Stats.record_rtt stats (Sim.Engine.now engine - t0);
              Stats.record_conn_op stats ~conn:conn_id
                ~bytes:(Bytes.length resp)
          | None -> ());
          on_response ~conn:conn_id resp;
          on_resp_complete cs));
  sock.Api.on_writable <- (fun () -> flush_backlog cs);
  cs

let send_request ~engine cs req_bytes =
  let msg = Framing.encode (Bytes.make req_bytes 'Q') in
  Sim.Fifo.push (Sim.Engine.now engine) cs.sent_at;
  cs.backlog <- cs.backlog @ [ (msg, 0) ];
  flush_backlog cs

let closed_loop_client ~endpoint ~engine ~server_ip ~server_port ~conns
    ~pipeline ~req_bytes ~stats ?on_response ?(req_cycles = 0) () =
  let client = { conns = []; n_connected = 0 } in
  let core = endpoint.Api.app_core in
  for i = 0 to conns - 1 do
    endpoint.Api.connect ~remote_ip:server_ip ~remote_port:server_port
      ~on_connected:(fun result ->
        match result with
        | Error _ -> ()
        | Ok sock ->
            let on_resp_complete cs =
              if req_cycles > 0 then
                Host_cpu.exec core ~category:"app" ~cycles:req_cycles
                  (fun () -> send_request ~engine cs req_bytes)
              else send_request ~engine cs req_bytes
            in
            let cs =
              make_conn ~engine ~stats ?on_response ~on_resp_complete i sock
            in
            client.conns <- cs :: client.conns;
            client.n_connected <- client.n_connected + 1;
            for _ = 1 to pipeline do
              send_request ~engine cs req_bytes
            done)
  done;
  client

let open_loop_client ~endpoint ~engine ~server_ip ~server_port ~conns
    ~rate_per_sec ~req_bytes ~stats () =
  let client = { conns = []; n_connected = 0 } in
  let rng = Sim.Rng.split (Sim.Engine.Local.rng engine) in
  let order = ref [] in
  let next_conn =
    let i = ref 0 in
    fun () ->
      match !order with
      | [] -> None
      | l ->
          let n = List.length l in
          let c = List.nth l (!i mod n) in
          incr i;
          Some c
  in
  for i = 0 to conns - 1 do
    endpoint.Api.connect ~remote_ip:server_ip ~remote_port:server_port
      ~on_connected:(fun result ->
        match result with
        | Error _ -> ()
        | Ok sock ->
            let cs =
              make_conn ~engine ~stats ~on_resp_complete:(fun _ -> ()) i sock
            in
            client.conns <- cs :: client.conns;
            order := cs :: !order;
            client.n_connected <- client.n_connected + 1)
  done;
  let rec arrival () =
    (match next_conn () with
    | Some cs -> send_request ~engine cs req_bytes
    | None -> ());
    let gap = Sim.Rng.exponential rng (1e12 /. rate_per_sec) in
    Sim.Engine.schedule engine (int_of_float gap) arrival
  in
  Sim.Engine.schedule engine 0 arrival;
  client
