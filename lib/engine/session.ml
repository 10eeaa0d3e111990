(** Batched evaluation sessions: several kernels explored over one
    shared tri-schedule memo, one worker-domain pool and (optionally)
    one persistent cache directory.

    The session is generic in what "exploring a kernel" means — the
    [explore] callback receives the evaluation environment, the kernel's
    warm store and the shared pool, and returns whatever the caller
    wants per kernel ([Dse.Driver] plugs in the Figure-2 search). The
    session owns everything around it: building the per-run
    configuration string, warm-loading stores, sharing the schedule memo
    so one kernel's block shapes serve the next kernel's, timing each
    kernel, merging counters, and persisting the result.

    Determinism contract: a warm store only short-circuits evaluations
    that would have produced bit-identical points, so selections are the
    same cold and warm, and the same batched or sequential. *)

type task = { name : string; kernel : Ir.Ast.kernel }

type 'r outcome = {
  task : task;
  result : 'r;
  store : Store.t;
  loaded_points : int;  (** points warm-loaded from the persistent store *)
  stats : Store.stats;  (** this kernel's counters (snapshot) *)
  wall_seconds : float;
}

type 'r summary = {
  outcomes : 'r outcome list;
  sched_memo : Hls.Schedule.memo;  (** shared across all kernels *)
  loaded_memo_shapes : int;
  total : Store.stats;  (** sum over all kernels *)
  config : string;  (** the persistence configuration string *)
  saved_to : string option;  (** cache directory written, if any *)
}

let run_many ?cache_dir ?(cold = false) ?pipeline ?profile ?verify
    ?capacity ?(backend = Backend.default) ?pool ?jobs
    ~(explore :
       env:Backend.env -> store:Store.t -> pool:Pool.t option -> 'r)
    (tasks : task list) : 'r summary =
  (* The configuration every cached value depends on. [make_env] applies
     the same defaults, so build one env up front to read them back. *)
  let probe =
    match tasks with
    | [] -> None
    | t :: _ ->
        Some
          (Backend.make_env ?pipeline ?profile ?verify ?capacity t.kernel)
  in
  let config =
    match probe with
    | None -> ""
    | Some env ->
        Persist.config_string ~backend:backend.Backend.name
          env.Backend.profile env.Backend.pipeline
  in
  let sched_memo = Hls.Schedule.memo_create () in
  let loaded_memo_shapes =
    match cache_dir with
    | Some dir when not cold -> Persist.load_memo ~cache_dir:dir ~config sched_memo
    | _ -> 0
  in
  let run_tasks pool =
    List.map
      (fun task ->
        let env =
          Backend.make_env ?pipeline ?profile ?verify ?capacity task.kernel
        in
        let store = Store.create ~sched_memo () in
        let loaded_points =
          match cache_dir with
          | Some dir when not cold ->
              Persist.load_points ~cache_dir:dir ~config
                ~kernel_key:(Persist.kernel_key task.kernel)
                store
          | _ -> 0
        in
        let t0 = Util.now () in
        let result = explore ~env ~store ~pool in
        let wall_seconds = Util.now () -. t0 in
        {
          task;
          result;
          store;
          loaded_points;
          stats = Store.stats_copy store.Store.stats;
          wall_seconds;
        })
      tasks
  in
  let outcomes =
    match pool with
    | Some p -> run_tasks (Some p)
    | None ->
        let n = match jobs with Some j -> j | None -> Pool.default_size () in
        if n <= 1 then run_tasks None
        else Pool.with_pool n (fun p -> run_tasks (Some p))
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
              ~kernel_key:(Persist.kernel_key o.task.kernel)
              o.store)
          outcomes;
        Some dir
    | _ -> None
  in
  { outcomes; sched_memo; loaded_memo_shapes; total; config; saved_to }
