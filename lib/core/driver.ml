(** The batched session driver: the Figure-2 search over several kernels.

    One call explores a batch of kernels over one shared tri-schedule
    memo (cross-kernel fingerprint hits) and — when [cache_dir] is
    given — one persistent store, so a second run over the same kernels
    performs zero full syntheses while selecting bit-identical designs:
    a warm store only short-circuits evaluations that would have
    produced bit-identical points. *)

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

module Backend = Engine.Backend
module Persist = Engine.Persist
module Store = Engine.Store

(** Explore each kernel with the Figure-2 search plus the [ubase]
    baseline evaluation the drivers report speedup against. With
    [cache_dir], each kernel's point cache and the shared memo are
    warm-loaded before exploring and saved (merged with the directory's
    prior contents) afterwards; [cold] skips the loads but still saves,
    refreshing the cache from scratch. The returned contexts keep their
    stores, so a sweep the caller runs afterwards starts warm. *)
let run_many ?cache_dir ?(cold = false) ?pipeline ?profile ?verify
    ?capacity ?(backend = Backend.default) ?search_config
    (tasks : Engine.task list) : summary =
  (* The configuration every cached value depends on. [make_env] applies
     the same defaults as [Design.context], so build one env up front to
     read them back. *)
  let config =
    match tasks with
    | [] -> ""
    | t :: _ ->
        let env =
          Backend.make_env ?pipeline ?profile ?verify ?capacity t.Engine.kernel
        in
        Persist.config_string ~backend:backend.Backend.name
          env.Backend.profile env.Backend.pipeline
  in
  let warm = if cold then None else cache_dir in
  let sched_memo = Hls.Schedule.memo_create () in
  let loaded_memo_shapes =
    match warm with
    | Some dir -> Persist.load_memo ~cache_dir:dir ~config sched_memo
    | None -> 0
  in
  let outcomes =
    List.map
      (fun (task : Engine.task) ->
        let store = Store.create ~sched_memo () in
        let loaded_points =
          match warm with
          | Some dir ->
              Persist.load_points ~cache_dir:dir ~config
                ~kernel_key:(Persist.kernel_key task.Engine.kernel)
                store
          | None -> 0
        in
        let ctx =
          Design.context ?pipeline ?profile ?verify ?capacity ~backend ~store
            task.Engine.kernel
        in
        let t0 = Util.now () in
        let search = Search.run ?config:search_config ctx in
        let baseline = Design.evaluate ctx (Design.ubase ctx) in
        let wall_seconds = Util.now () -. t0 in
        {
          task;
          search;
          baseline;
          ctx;
          loaded_points;
          stats = Design.stats_snapshot ctx;
          wall_seconds;
        })
      tasks
  in
  let total = Store.fresh_stats () in
  List.iter (fun o -> Store.stats_add ~into:total o.stats) outcomes;
  let saved_to =
    match cache_dir with
    | Some dir when tasks <> [] ->
        Persist.save_memo ~cache_dir:dir ~config sched_memo;
        List.iter
          (fun o ->
            Persist.save_points ~cache_dir:dir ~config
              ~kernel_key:(Persist.kernel_key o.task.Engine.kernel)
              o.ctx.Design.store)
          outcomes;
        Some dir
    | _ -> None
  in
  {
    outcomes;
    total;
    loaded_memo_shapes;
    sched_memo_shapes = Hls.Schedule.memo_size sched_memo;
    config;
    saved_to;
  }
