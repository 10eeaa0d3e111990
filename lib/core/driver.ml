(** The search-specialized session driver: {!Engine.run_many} with the
    Figure-2 exploration plugged in as the per-kernel work.

    One call explores a batch of kernels over one shared tri-schedule
    memo (cross-kernel fingerprint hits), one worker-domain pool, and —
    when [cache_dir] is given — one persistent store, so a second run
    over the same kernels performs zero full syntheses while selecting
    bit-identical designs. *)

type outcome = {
  task : Engine.task;
  search : Search.result;
  baseline : Design.point;  (** the no-unrolling design ([ubase]) *)
  ctx : Design.context;  (** post-run context (store, stats, capacity) *)
  loaded_points : int;  (** points warm-loaded from the persistent store *)
  stats : Design.stats;  (** this kernel's counters, baseline included *)
  wall_seconds : float;
}

type summary = {
  outcomes : outcome list;
  total : Design.stats;  (** sum over all kernels *)
  loaded_memo_shapes : int;
      (** tri-schedules warm-loaded from the persistent store *)
  sched_memo_shapes : int;
      (** distinct block shapes in the shared memo after the session *)
  config : string;  (** the persistence configuration string *)
  saved_to : string option;  (** cache directory written, if any *)
}

let speedup (o : outcome) : float =
  float_of_int (Design.cycles o.baseline)
  /. float_of_int (max 1 (Design.cycles o.search.Search.selected))

(** Explore each kernel with the Figure-2 search (plus the [ubase]
    baseline evaluation the drivers report speedup against). See
    {!Engine.run_many} for [cache_dir]/[cold]/[pool]/[jobs]; the sweep
    behind any reporting the caller does afterwards can reuse the
    returned contexts' stores. *)
let run_many ?cache_dir ?cold ?pipeline ?profile ?verify ?capacity ?backend
    ?pool ?jobs ?search_config (tasks : Engine.task list) : summary =
  let summary =
    Engine.run_many ?cache_dir ?cold ?pipeline ?profile ?verify ?capacity
      ?backend ?pool ?jobs
      ~explore:(fun ~env ~store ~pool:_ ->
        let ctx = Design.of_env ?backend ~store env in
        let search = Search.run ?config:search_config ctx in
        let baseline = Design.evaluate ctx (Design.ubase ctx) in
        (ctx, search, baseline))
      tasks
  in
  let outcomes =
    List.map
      (fun (o : _ Engine.outcome) ->
        let ctx, search, baseline = o.Engine.result in
        {
          task = o.Engine.task;
          search;
          baseline;
          ctx;
          loaded_points = o.Engine.loaded_points;
          stats = o.Engine.stats;
          wall_seconds = o.Engine.wall_seconds;
        })
      summary.Engine.outcomes
  in
  {
    outcomes;
    total = summary.Engine.total;
    loaded_memo_shapes = summary.Engine.loaded_memo_shapes;
    sched_memo_shapes = Hls.Schedule.memo_size summary.Engine.sched_memo;
    config = summary.Engine.config;
    saved_to = summary.Engine.saved_to;
  }
