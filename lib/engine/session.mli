(** Batched evaluation sessions: several kernels explored over one
    shared tri-schedule memo, one worker-domain pool and (optionally)
    one persistent cache directory. Generic in what exploring a kernel
    means — see [Dse.Driver] for the search-specialized driver. *)

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

(** Explore each kernel in order over one shared schedule memo.

    With [cache_dir], each kernel's point cache and the shared memo are
    warm-loaded before exploring and saved (merged with the directory's
    prior contents) afterwards; [cold] skips the loads but still saves,
    refreshing the cache from scratch. With [pool], sweeps share the
    caller's worker domains; otherwise a pool of [jobs] workers
    (default {!Pool.default_size}) is created for the session and shut
    down at the end — [jobs:1] runs without worker domains entirely.

    Warm stores only short-circuit evaluations that would have produced
    bit-identical points, so results are the same cold and warm. *)
val run_many :
  ?cache_dir:string ->
  ?cold:bool ->
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?verify:bool ->
  ?capacity:int ->
  ?backend:Backend.t ->
  ?pool:Pool.t ->
  ?jobs:int ->
  explore:(env:Backend.env -> store:Store.t -> pool:Pool.t option -> 'r) ->
  task list ->
  'r summary
