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

let is d x = match d with Some d -> d == x | None -> false

let doc = function
  | No_lock -> "the protocol stage runs without the per-connection lock"
  | Early_release -> "the lock is dropped before the critical section"
  | Notify_before_payload ->
      "the ARX notification and ACK leave before the payload DMA lands"
  | Skip_notify_dma ->
      "the notification is delivered without the DMA-completion edge"
  | Postproc_writes_conn -> "the post-processor pokes protocol state"
  | Preproc_reads_proto -> "the pre-processor peeks at protocol state"
  | Bad_contract -> "the post-processor declares a protocol-state write"
  | Mis_steer ->
      "the protocol stage indexes a neighbor flow group's caches and FPCs"

type analyzer = Flexprove | Flexinfer

let dynamic_only analyzer d =
  match (analyzer, d) with
  | Flexprove, Notify_before_payload ->
      Some
        "the declared dma->ctx ordered completion edge is intact; the \
         defect is signalling before the DMA lands, visible only to \
         FlexSan's happens-before layer at runtime"
  | Flexprove, Skip_notify_dma ->
      Some
        "same declared edge; delivery skips the completion wait at \
         runtime, so the wiring FlexProve sees is the sound one"
  | Flexprove, Mis_steer ->
      Some
        "the declared per-flow-group wiring is intact; the defect is the \
         implementation indexing a neighbor group's caches and FPC pool \
         at runtime, caught by the datapath's steering self-check and \
         FlexSan"
  | Flexinfer, No_lock ->
      Some
        "footprint-identical: the lock is skipped, not an access added; \
         FlexProve's graph extraction catches the domain mismatch"
  | Flexinfer, Early_release ->
      Some
        "footprint-identical: same accesses, released too early; \
         FlexProve/FlexSan territory"
  | Flexinfer, Notify_before_payload ->
      Some
        "footprint-identical: the notification is reordered, not a new \
         access; FlexSan's happens-before layer at runtime"
  | Flexinfer, Skip_notify_dma ->
      Some
        "footprint-identical: the DMA-completion wait is dropped, the \
         accesses are unchanged; dynamic-only"
  | Flexinfer, Mis_steer ->
      Some
        "footprint-identical: the declared per-flow-group wiring is \
         intact, the defect is runtime indexing of a neighbor shard's \
         caches; the steering self-check and FlexSan own it"
  | ( Flexprove,
      ( No_lock | Early_release | Postproc_writes_conn | Preproc_reads_proto
      | Bad_contract ) )
  | Flexinfer, (Postproc_writes_conn | Preproc_reads_proto | Bad_contract) ->
      None

let rejected_at_create = function Bad_contract -> true | _ -> false
