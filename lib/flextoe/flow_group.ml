(* FlexScale steering (DESIGN.md §17). Everything here is a pure
   function of the connection 4-tuple and the static configuration:
   steering can never depend on load, time or table state, which is
   what makes "a flow never migrates shards mid-life" a theorem
   rather than a property of the scheduler's mood. *)

let group_of_flow flow ~groups =
  if groups <= 0 then invalid_arg "Flow_group.group_of_flow: groups <= 0";
  Tcp.Flow.flow_group flow ~groups

let shard_of_group fg ~shards =
  if shards <= 0 then invalid_arg "Flow_group.shard_of_group: shards <= 0";
  fg mod shards

let shard_of_flow flow ~groups ~shards =
  shard_of_group (group_of_flow flow ~groups) ~shards

let shards_of (scale : Config.scale) =
  if scale.Config.s_on then Int.max 1 scale.Config.s_shards else 1

let shard_of_config (cfg : Config.t) flow =
  shard_of_flow flow
    ~groups:cfg.Config.parallelism.Config.flow_groups
    ~shards:(shards_of cfg.Config.scale)
