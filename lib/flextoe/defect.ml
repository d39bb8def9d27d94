type t =
  | No_lock
  | Early_release
  | Notify_before_payload
  | Skip_notify_dma
  | Postproc_writes_conn
  | Preproc_reads_proto
  | Bad_contract
  | Mis_steer

let all =
  [
    No_lock; Early_release; Notify_before_payload; Skip_notify_dma;
    Postproc_writes_conn; Preproc_reads_proto; Bad_contract; Mis_steer;
  ]

let name = function
  | No_lock -> "no_lock"
  | Early_release -> "early_release"
  | Notify_before_payload -> "notify_before_payload"
  | Skip_notify_dma -> "skip_notify_dma"
  | Postproc_writes_conn -> "postproc_writes_conn"
  | Preproc_reads_proto -> "preproc_reads_proto"
  | Bad_contract -> "bad_contract"
  | Mis_steer -> "mis_steer"

let of_name s = List.find_opt (fun d -> String.equal (name d) s) all

let doc = function
  | No_lock -> "the protocol row is built without the per-connection lock"
  | Early_release -> "the lock is dropped before the critical section"
  | Notify_before_payload ->
      "the ARX notification and ACK leave before the payload DMA lands"
  | Skip_notify_dma ->
      "the notification is delivered without the DMA-completion edge"
  | Postproc_writes_conn -> "the post-processor pokes protocol state"
  | Preproc_reads_proto -> "the pre-processor peeks at protocol state"
  | Bad_contract -> "the post-processor declares a protocol-state write"
  | Mis_steer ->
      "odd connections are steered to a neighbor flow group's caches and FPCs"

(* --- The variants --------------------------------------------------- *)

(* The extra entries. The post-processor's store is value-preserving
   (the TCP state machine cannot tell), but on hardware it would race
   the protocol stage's writes. *)
let postproc_writes_conn ~access cs =
  let p = cs.Conn_state.proto in
  p.Conn_state.last_progress <- p.Conn_state.last_progress;
  access Effects.Conn_proto Effects.Write

(* The pre-processor peeks at protocol state, e.g. to "optimize" the
   in-window test outside the lock. *)
let preproc_reads_proto ~access (_ : Conn_state.t) =
  access Effects.Conn_proto Effects.Read

(* The row each variant builds differently, and how. *)
let site d =
  let open Pipeline in
  let departs row d = (row, fun s -> { s with s_departure = Some d }) in
  let extra row x_entry ~reads ~writes x_run =
    departs row (Extra { x_entry; x_reads = reads; x_writes = writes; x_run })
  in
  match d with
  | No_lock -> departs protocol Lock_skipped
  | Early_release -> departs protocol Lock_released_early
  | Notify_before_payload -> departs dma No_dma_wait
  | Skip_notify_dma -> departs ctx No_dma_wait
  | Postproc_writes_conn ->
      extra postproc "Defect.postproc_writes_conn" ~reads:[]
        ~writes:[ Effects.Conn_proto ] postproc_writes_conn
  | Preproc_reads_proto ->
      extra preproc "Defect.preproc_reads_proto" ~reads:[ Effects.Conn_proto ]
        ~writes:[] preproc_reads_proto
  | Mis_steer ->
      departs protocol
        (Steer
           (fun ~conn ~fg ~groups ->
             if conn land 1 = 1 then (fg + 1) mod groups else fg))
  | Bad_contract ->
      (* A declaration variant, refused at create. *)
      ( postproc,
        fun s ->
          let c = s.s_contract in
          let c_writes = Effects.Conn_proto :: c.Effects.c_writes in
          { s with s_contract = { c with c_writes } } )

let row d = Pipeline.name (fst (site d))

let pipeline d =
  let r, f = site d in
  List.map
    (fun s -> if Pipeline.name s = Pipeline.name r then f s else s)
    Pipeline.builtin

type analyzer = Flexprove | Flexinfer

let dynamic_only analyzer d =
  match (analyzer, d) with
  | Flexprove, (Notify_before_payload | Skip_notify_dma) ->
      Some
        "the as-built notify edge is unordered, but the interference pass \
         still finds an ordered path from the DMA stage to the reader \
         through queues that carry other work (tx-gro, cp-queue, atx); \
         FlexSan's happens-before layer owns it at runtime"
  | Flexprove, Mis_steer ->
      Some
        "the graph has no steering: the protocol row's steering function \
         indexes a neighbor group's caches and FPC pool at runtime, caught \
         by the datapath's steering self-check and FlexSan"
  | ( Flexinfer,
      (No_lock | Early_release | Notify_before_payload | Skip_notify_dma
      | Mis_steer) ) ->
      Some
        "footprint-identical: the variant changes how a row is built, not \
         what its code accesses; FlexProve or FlexSan owns it"
  | ( Flexprove,
      ( No_lock | Early_release | Postproc_writes_conn | Preproc_reads_proto
      | Bad_contract ) )
  | Flexinfer, (Postproc_writes_conn | Preproc_reads_proto | Bad_contract) ->
      None

let rejected_at_create = function Bad_contract -> true | _ -> false
