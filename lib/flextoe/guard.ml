(* FlexGuard: the overload-control mechanism state (DESIGN.md §13).

   Owns the state the control plane and data path consult under
   churn: the SYN-cookie secret, the TIME_WAIT table, the event
   counters, and the per-stage queue-depth high-water marks. The
   admission decisions themselves live in the control plane, which
   counts each one here. *)

(* The mechanisms' fixed limits (DESIGN.md §13). *)
let syn_backlog = 64
let syn_retries = 6
let syn_retry_base = Sim.Time.ms 1
let syn_retry_max = Sim.Time.ms 8
let time_wait = Sim.Time.ms 10
let time_wait_max = 4096
let idle_timeout = Sim.Time.ms 20
let reap_interval = Sim.Time.ms 1

type tw_entry = {
  tw_flow : Tcp.Flow.t;
  tw_snd_nxt : Tcp.Seq32.t;  (* our seq after the FIN *)
  tw_rcv_nxt : Tcp.Seq32.t;  (* peer seq after their FIN *)
  tw_deadline : Sim.Time.t;
  tw_born : int;  (* insertion order, for oldest-first recycling *)
}

type t = {
  g : Config.guard;
  secret : int;
  tw : tw_entry Tcp.Flow.Tbl.t;
  (* Every entry ever added, oldest first. Each add is at the engine's
     clock, so this is also deadline order. An entry is stale once its
     flow left [tw] or was re-added with a newer [tw_born]; stale
     entries are dropped when they reach the head. *)
  tw_order : tw_entry Sim.Fifo.t;
  mutable tw_births : int;
  counters : (string, int ref) Hashtbl.t;
  peaks : (string, int ref) Hashtbl.t;
}

let create ~g ~secret () =
  {
    g;
    secret = secret land 0x3FFFFFFF;
    tw = Tcp.Flow.Tbl.create 256;
    tw_order = Sim.Fifo.create ();
    tw_births = 0;
    counters = Hashtbl.create 32;
    peaks = Hashtbl.create 8;
  }

let config t = t.g

let count t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counters name (ref 1)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let established_shed t = counter t "established_shed"

(* --- Queue-depth high-water marks ----------------------------------- *)

let note_depth t ~queue depth =
  match Hashtbl.find_opt t.peaks queue with
  | Some r -> if depth > !r then r := depth
  | None -> Hashtbl.replace t.peaks queue (ref depth)

let peak_depth t ~queue =
  match Hashtbl.find_opt t.peaks queue with Some r -> !r | None -> 0

(* --- SYN cookies ------------------------------------------------------ *)

(* A cookie ISN folds the 4-tuple, a per-node secret and a coarse time
   epoch (one TIME_WAIT hold long) through an avalanche mix. Validation
   accepts the current and previous epoch, so a cookie stays good for
   one to two epochs — the stateless analogue of the bounded SYN-ACK
   retransmission window. *)

let mix h v =
  let h = (h lxor v) * 0x9E3779B1 land max_int in
  (h lxor (h lsr 16)) land max_int

let cookie_of_epoch t ~flow ~epoch =
  let open Tcp.Flow in
  let h = mix t.secret epoch in
  let h = mix h flow.local_ip in
  let h = mix h flow.remote_ip in
  let h = mix h ((flow.local_port lsl 16) lor flow.remote_port) in
  Tcp.Seq32.of_int (h land 0x3FFFFFFF)

let cookie_isn t ~now ~flow =
  cookie_of_epoch t ~flow ~epoch:(now / time_wait)

let cookie_check t ~now ~flow ~isn =
  let epoch = now / time_wait in
  Tcp.Seq32.diff isn (cookie_of_epoch t ~flow ~epoch) = 0
  || (epoch > 0
     && Tcp.Seq32.diff isn (cookie_of_epoch t ~flow ~epoch:(epoch - 1)) = 0)

(* --- TIME_WAIT table -------------------------------------------------- *)

let tw_length t = Tcp.Flow.Tbl.length t.tw

let tw_find t ~flow =
  match Tcp.Flow.Tbl.find_opt t.tw flow with
  | Some e -> Some (e.tw_snd_nxt, e.tw_rcv_nxt)
  | None -> None

let tw_remove t ~flow = Tcp.Flow.Tbl.remove t.tw flow

let live t e =
  match Tcp.Flow.Tbl.find_opt t.tw e.tw_flow with
  | Some cur -> cur.tw_born = e.tw_born
  | None -> false

(* Drop stale entries from the head of [tw_order]: afterwards its head,
   if any, is the oldest entry in the table. *)
let rec tw_skip_stale t =
  if (not (Sim.Fifo.is_empty t.tw_order))
     && not (live t (Sim.Fifo.peek t.tw_order))
  then begin
    ignore (Sim.Fifo.pop t.tw_order);
    tw_skip_stale t
  end

let tw_add t ~now ~flow ~snd_nxt ~rcv_nxt =
  if tw_length t >= time_wait_max && not (Tcp.Flow.Tbl.mem t.tw flow) then begin
    (* Pressure: recycle the oldest entry so teardown can't be wedged
       by a full table. *)
    tw_skip_stale t;
    let oldest = Sim.Fifo.pop t.tw_order in
    Tcp.Flow.Tbl.remove t.tw oldest.tw_flow;
    count t "tw_recycled_pressure"
  end;
  t.tw_births <- t.tw_births + 1;
  let e =
    {
      tw_flow = flow;
      tw_snd_nxt = snd_nxt;
      tw_rcv_nxt = rcv_nxt;
      tw_deadline = now + time_wait;
      tw_born = t.tw_births;
    }
  in
  Tcp.Flow.Tbl.replace t.tw flow e;
  Sim.Fifo.push e t.tw_order;
  count t "tw_installed"

(* A fresh SYN may take over a TIME_WAIT 4-tuple only when its ISN is
   strictly beyond the old connection's final receive point —
   wraparound-aware, so a recycled port with a wrapped sequence space
   still disambiguates (RFC 6191 flavor). *)
let tw_syn_acceptable t ~flow ~isn =
  match Tcp.Flow.Tbl.find_opt t.tw flow with
  | None -> true
  | Some e -> Tcp.Seq32.gt isn e.tw_rcv_nxt

(* Live entries leave in deadline order, so the first one still
   waiting ends the pass. *)
let tw_reap t ~now =
  let rec go n =
    tw_skip_stale t;
    if (not (Sim.Fifo.is_empty t.tw_order))
       && now >= (Sim.Fifo.peek t.tw_order).tw_deadline
    then begin
      Tcp.Flow.Tbl.remove t.tw (Sim.Fifo.pop t.tw_order).tw_flow;
      count t "tw_expired";
      go (n + 1)
    end
    else n
  in
  go 0
