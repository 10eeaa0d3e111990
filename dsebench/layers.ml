(** Per-layer numbers of one traced cold phase, named by [lib/] module.

    Three sources, all outside the program:
    - the {!Probe} spans around [Engine.Backend] calls and the
      design-space calls of the workload;
    - the public [Design.stats] counters and in-program timers;
    - replays of each explored context once its timed section ends:
      every evaluated configuration through
      [Transform.Pipeline.apply ?observe] (and [Check.Validate.run] when
      the workload verifies), and the store through [Engine.Persist]
      save and load. Each replay must reproduce the stored result bit
      for bit.

    Self times partition the traced wall time: what no layer claims is
    reported as [trace.unattributed_s]. *)

open Ir
module Design = Dse.Design
module Pipeline = Transform.Pipeline
module Persist = Engine.Persist

let now = Unix.gettimeofday
let stage_keys = [| "tile"; "unroll_jam"; "scalar_replace"; "peel"; "licm"; "simplify" |]

let stage_index : Pipeline.stage -> int = function
  | Tile -> 0
  | Unroll_jam -> 1
  | Scalar_replace -> 2
  | Peel -> 3
  | Licm -> 4
  | Simplify -> 5

let count_stmts (k : Ast.kernel) =
  Ast.fold_stmts ~stmt:(fun n _ -> n + 1) ~expr:(fun n _ -> n) 0 k.Ast.k_body

(** Replay and counter totals over every context the phase explored. *)
type t = {
  cache_dir : string;  (** scratch directory for the persist replay *)
  validate : bool;
  stage_s : float array;  (** self time per stage, observer excluded *)
  stage_stmts : int array;  (** IR statements after each stage, summed *)
  mutable validate_s : float;  (** [Check.Validate.run] over the same configs *)
  mutable configs : int;
  mutable replay_mismatches : int;
  mutable save_s : float;
  mutable load_s : float;
  mutable bytes : int;
  mutable store_mismatches : int;
  stats : Engine.Store.stats;
  mutable memo_shapes : int;
  mutable sweep_points : int;
  mutable joint_space : int;
  mutable joint_illegal : int;
  mutable joint_redundant : int;
  mutable joint_bound : int;
  mutable joint_evaluated : int;
  mutable search_s : float;  (** per-kernel session time, engine-timed *)
  mutable search_evals : int;
  mutable session : bool;
}

let create ~cache_dir (w : Workload.t) =
  {
    cache_dir;
    validate = Workload.verifies w;
    stage_s = Array.make 6 0.0;
    stage_stmts = Array.make 6 0;
    validate_s = 0.0;
    configs = 0;
    replay_mismatches = 0;
    save_s = 0.0;
    load_s = 0.0;
    bytes = 0;
    store_mismatches = 0;
    stats = Engine.Store.fresh_stats ();
    memo_shapes = 0;
    sweep_points = 0;
    joint_space = 0;
    joint_illegal = 0;
    joint_redundant = 0;
    joint_bound = 0;
    joint_evaluated = 0;
    search_s = 0.0;
    search_evals = 0;
    session = false;
  }

let replay_transform t (ctx : Design.context) =
  Engine.Store.iter_points ctx.Design.store (fun config (p : Design.point) ->
      t.configs <- t.configs + 1;
      let opts = Pipeline.apply_config ~base:ctx.Design.pipeline config in
      let last = ref (now ()) in
      let observe stage ~before:_ ~after =
        let i = stage_index stage in
        t.stage_s.(i) <- t.stage_s.(i) +. (now () -. !last);
        t.stage_stmts.(i) <- t.stage_stmts.(i) + count_stmts after;
        last := now ()
      in
      let r = Pipeline.apply ~observe opts ctx.Design.source in
      let same (r : Pipeline.result) = Ast.equal_kernel r.Pipeline.kernel p.Design.kernel in
      if not (same r) then t.replay_mismatches <- t.replay_mismatches + 1;
      if t.validate then begin
        let t0 = now () in
        let o = Check.Validate.run ~options:opts ctx.Design.source in
        t.validate_s <- t.validate_s +. (now () -. t0);
        match o.Check.Validate.result with
        | Some r when same r -> ()
        | _ -> t.replay_mismatches <- t.replay_mismatches + 1
      end)

(* Distinct schedule memos: a session's kernels share one. *)
let memos (ctxs : Design.context list) =
  List.fold_left
    (fun acc (c : Design.context) ->
      let m = c.Design.store.Engine.Store.sched_memo in
      if List.memq m acc then acc else m :: acc)
    [] ctxs

(* Save the stores into the scratch directory, load them back into
   fresh ones, and compare point for point. *)
let replay_persist t (ctxs : Design.context list) =
  let cache_dir = t.cache_dir and config = Workload.config_of (List.hd ctxs) in
  let key (c : Design.context) = Persist.kernel_key c.Design.source in
  let t0 = now () in
  List.iter
    (fun (c : Design.context) ->
      Persist.save_points ~cache_dir ~config ~kernel_key:(key c) c.Design.store)
    ctxs;
  List.iter (fun m -> Persist.save_memo ~cache_dir ~config m) (memos ctxs);
  t.save_s <- t.save_s +. (now () -. t0);
  t.bytes <- t.bytes + (Persist.stats ~cache_dir).Persist.ds_bytes;
  let t0 = now () in
  let sched_memo = Hls.Schedule.memo_create () in
  ignore (Persist.load_memo ~cache_dir ~config sched_memo);
  let loaded =
    List.map
      (fun (c : Design.context) ->
        let store = Engine.Store.create ~sched_memo () in
        ignore (Persist.load_points ~cache_dir ~config ~kernel_key:(key c) store);
        (c, store))
      ctxs
  in
  t.load_s <- t.load_s +. (now () -. t0);
  let same (c : Design.context) store =
    let ok = ref (Engine.Store.size store = Design.cache_size c) in
    Engine.Store.iter_points c.Design.store (fun cfg p ->
        match Engine.Store.find store cfg with
        | Some q when compare p q = 0 -> ()
        | _ -> ok := false);
    !ok
  in
  List.iter
    (fun (c, s) -> if not (same c s) then t.store_mismatches <- t.store_mismatches + 1)
    loaded;
  ignore (Persist.clear ~cache_dir)

(** The [observe] hook of {!Workload.cold}. *)
let observe t (ctxs : Design.context list) (d : Workload.detail) =
  List.iter (fun (c : Design.context) -> Engine.Store.stats_add ~into:t.stats c.Design.stats) ctxs;
  t.memo_shapes <-
    List.fold_left (fun n m -> n + Hls.Schedule.memo_size m) t.memo_shapes (memos ctxs);
  List.iter (replay_transform t) ctxs;
  if ctxs <> [] then replay_persist t ctxs;
  t.sweep_points <- t.sweep_points + d.Workload.sweep_points;
  List.iter
    (fun (j : Dse.Space.joint) ->
      t.joint_space <- t.joint_space + j.Dse.Space.space_size;
      t.joint_illegal <- t.joint_illegal + j.Dse.Space.pruned_illegal;
      t.joint_redundant <- t.joint_redundant + j.Dse.Space.pruned_redundant;
      t.joint_bound <- t.joint_bound + j.Dse.Space.pruned_bound;
      t.joint_evaluated <- t.joint_evaluated + List.length j.Dse.Space.points)
    d.Workload.joints;
  List.iter
    (fun (o : Dse.Driver.outcome) ->
      t.session <- true;
      t.search_s <- t.search_s +. o.Dse.Driver.wall_seconds;
      t.search_evals <- t.search_evals + o.Dse.Driver.search.Dse.Search.stats.Design.evaluations)
    d.Workload.searches

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(** Per-layer metrics as (name, (unit, value)) of the traced phase [ph],
    plus the problems found: replay mismatches, a negative self time,
    counts that disagree. [warm_loaded] is what the warm phase loaded. *)
let metrics t (pr : Probe.t) (ph : Workload.phase) ~parse_s ~kernels ~warm_loaded =
  let st = t.stats in
  let synth_s = Probe.synth_s pr and synth_calls = List.length pr.Probe.synth in
  (* A session's [Driver.run_many] span holds the per-kernel explorations
     (timed by the engine itself) and the session's own work:
     environments, stores and persist I/O. *)
  let session_io_s = if t.session then pr.Probe.dse_s -. t.search_s else 0.0 in
  let pipeline_s = Array.fold_left ( +. ) 0.0 t.stage_s in
  (* Under --verify the in-program transform timer also covers
     validation; split it by the replay's pipeline/validate ratio. *)
  let transform_self, validate_self =
    if t.validate then
      let in_pipeline = st.transform_seconds -. st.flow_seconds in
      let share = ratio pipeline_s t.validate_s in
      (in_pipeline *. share, in_pipeline *. (1.0 -. share))
    else (st.transform_seconds, 0.0)
  in
  let selves =
    [
      ("transform", transform_self);
      ("hls", st.estimate_seconds -. st.layout_seconds);
      ("layout", st.layout_seconds);
      ("check", validate_self +. st.flow_seconds);
      ( "engine",
        synth_s -. st.transform_seconds -. st.estimate_seconds +. pr.Probe.bound_s
        +. session_io_s );
      ("dse", pr.Probe.dse_s -. synth_s -. pr.Probe.bound_s -. session_io_s);
    ]
  in
  let wall_s = ph.Workload.raw_s in
  (* Worker domains (more than one only on larger machines) add busy
     time in parallel with the wall clock. *)
  let capacity = wall_s *. float_of_int (Dse.Space.default_jobs ()) in
  let unattributed = capacity -. List.fold_left (fun s (_, v) -> s +. v) 0.0 selves in
  let s v = ("s", v) and c n = ("count", float_of_int n) and r v = ("ratio", v) in
  let self layer = (layer ^ ".self_s", s (List.assoc layer selves)) in
  let metrics =
    List.concat
      [
        List.concat
          (List.init 6 (fun k ->
               [
                 ("transform." ^ stage_keys.(k) ^ "_s", s t.stage_s.(k));
                 ("transform." ^ stage_keys.(k) ^ "_stmts", c t.stage_stmts.(k));
               ]));
        [
          ("transform.delta_reuses", c st.delta_reuses);
          self "transform";
          ("hls.dfg_s", s st.dfg_seconds);
          ("hls.schedule_s", s st.schedule_seconds);
          ( "hls.sched_memo_hit_ratio",
            r (ratio_i st.sched_memo_hits (st.sched_memo_hits + t.memo_shapes)) );
          ("hls.region_memo_hits", c st.region_memo_hits);
          self "hls";
          ("layout.assign_s", s st.layout_seconds);
          self "layout";
          ("engine.synth_calls", c synth_calls);
          ("engine.synth_s", s synth_s);
          ("engine.synth_p50_ms", ("ms", 1000.0 *. Probe.synth_quantile pr 0.5));
          ("engine.synth_p90_ms", ("ms", 1000.0 *. Probe.synth_quantile pr 0.9));
          ("engine.bound_calls", c pr.Probe.bound_calls);
          ("engine.bound_s", s pr.Probe.bound_s);
          ("engine.quick_prune_ratio", r (ratio_i st.pruned pr.Probe.bound_calls));
          ("engine.cache_hit_ratio", r (ratio_i st.cache_hits (st.cache_hits + st.evaluations)));
          ("engine.persist_save_s", s t.save_s);
          ("engine.persist_load_s", s t.load_s);
          ("engine.persist_bytes", ("bytes", float_of_int t.bytes));
          ("engine.loaded_points", c warm_loaded);
          self "engine";
          ("dse.search_s", s t.search_s);
          ("dse.search_evaluations", c t.search_evals);
          ("dse.sweep_points", c t.sweep_points);
          ("dse.joint_space", c t.joint_space);
          ("dse.joint_pruned_illegal", c t.joint_illegal);
          ("dse.joint_pruned_redundant", c t.joint_redundant);
          ("dse.joint_pruned_bound", c t.joint_bound);
          ("dse.joint_evaluated", c t.joint_evaluated);
          ("dse.joint_eval_ratio", r (ratio_i t.joint_evaluated t.joint_space));
          self "dse";
          ("check.validate_s", s (Float.max 0.0 (t.validate_s -. pipeline_s)));
          ("check.flow_s", s st.flow_seconds);
          ("check.checked_points", c st.checked_points);
          ("check.violations", c st.verify_violations);
          self "check";
          ("frontend.parse_s", s parse_s);
          ("frontend.kernels", c kernels);
          ("gc.minor_mwords", ("Mwords", ph.Workload.minor_words /. 1e6));
          ("gc.major_collections", c ph.Workload.major_collections);
          ( "gc.top_heap_mb",
            ( "MB",
              float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
              /. 1048576.0 ) );
          ("trace.wall_s", s wall_s);
          ("trace.unattributed_s", s unattributed);
          ("trace.unattributed_frac", r (ratio unattributed capacity));
        ];
      ]
  in
  let problem cond msg = if cond then [ msg ] else [] in
  let problems =
    List.concat
      [
        problem (t.replay_mismatches > 0)
          (Printf.sprintf "%d replay(s) differ from the stored kernel" t.replay_mismatches);
        problem (t.store_mismatches > 0)
          (Printf.sprintf "%d store(s) did not load back equal" t.store_mismatches);
        problem (t.configs <> synth_calls)
          (Printf.sprintf "%d stored configurations but %d synthesize calls" t.configs synth_calls);
        (* Timers and spans read one clock; allow 1% of the wall time for
           the gaps between nested readings. *)
        List.concat_map
          (fun (layer, v) ->
            problem (v < -0.01 *. capacity)
              (Printf.sprintf "negative %s self time %.6f s" layer v))
          (("unattributed", unattributed) :: selves);
      ]
  in
  (metrics, problems)
