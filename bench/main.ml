(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Section 6) and times the search with Bechamel.

    {v
    dune exec bench/main.exe                 -- everything
    dune exec bench/main.exe -- --only fig5  -- one artifact
    dune exec bench/main.exe -- --list       -- list artifact ids
    dune exec bench/main.exe -- --smoke      -- fast CI subset
    v}

    Artifacts: fig4 fig5 fig6 fig7 fig8 fig9 fig10 (balance / cycles /
    area sweeps), tab2 (speedups), frac (fraction of the space searched),
    acc (estimate accuracy after the P&R model), ablation (contribution
    of each transformation), json (machine-readable DSE perf trajectory,
    written to BENCH_dse.json), speed (Bechamel timing of the search).

    [--smoke] runs a reduced subset with small sweep lattices and a
    throwaway JSON file; the test suite executes it on every [dune
    runtest] so the bench code cannot bit-rot silently. *)

module Design = Dse.Design
module Search = Dse.Search
module Space = Dse.Space
module Estimate = Hls.Estimate

let capacity = Hls.Device.default.Hls.Device.capacity_slices

(** Smoke mode: tiny sweep lattices, temp-file JSON, fast artifact
    subset — exercised from the test suite. *)
let smoke = ref false

let sweep_product () = if !smoke then 16 else 256

let ctx ?(pipelined = true) name =
  let k = Option.get (Kernels.find name) in
  let profile = Estimate.default_profile ~pipelined () in
  Design.context ~profile k

let divisors = Dse.Util.divisors

let vec_str v =
  "(" ^ String.concat "," (List.map (fun (_, u) -> string_of_int u) v) ^ ")"

(* ------------------------------------------------------------------ *)
(* Figures 4-10: balance, cycles, area as functions of unroll factors *)

type sweep_axes = {
  outer : string;  (** curve parameter *)
  inner : string;  (** x axis *)
  outer_vals : int list;
  inner_vals : int list;
}

let axes_of name =
  let k = Option.get (Kernels.find name) in
  let spine = Ir.Loop_nest.spine k.Ir.Ast.k_body in
  match spine with
  | o :: i :: _ ->
      let touter = Ir.Ast.loop_trip o and tinner = Ir.Ast.loop_trip i in
      {
        outer = o.Ir.Ast.index;
        inner = i.Ir.Ast.index;
        outer_vals = List.filteri (fun idx _ -> idx < 5) (divisors touter);
        inner_vals = divisors tinner;
      }
  | _ -> invalid_arg "axes_of: kernel too shallow"

let figure ~id ~pipelined name =
  let axes = axes_of name in
  let c = ctx ~pipelined name in
  let selected = (Search.run c).Search.selected.Design.vector in
  Printf.printf
    "## %s: %s, %s memory -- balance / execution cycles / area(slices)\n" id
    (String.uppercase_ascii name)
    (if pipelined then "pipelined" else "non-pipelined");
  Printf.printf
    "#  rows: outer loop %s unroll; columns: inner loop %s unroll\n\
     #  (*) = design selected by the search; '-' = over capacity (%d slices)\n"
    axes.outer axes.inner capacity;
  let eval uo ui = Design.evaluate c [ (axes.outer, uo); (axes.inner, ui) ] in
  let points =
    List.map
      (fun uo -> (uo, List.map (fun ui -> (ui, eval uo ui)) axes.inner_vals))
      axes.outer_vals
  in
  let header () =
    Printf.printf "%-8s" (axes.outer ^ "\\" ^ axes.inner);
    List.iter (fun ui -> Printf.printf "%10d" ui) axes.inner_vals;
    print_newline ()
  in
  let mark uo ui s =
    let v = [ (axes.outer, uo); (axes.inner, ui) ] in
    if Design.vector_equal (Design.normalize_vector c v) selected then s ^ "*"
    else s
  in
  let table title render =
    Printf.printf "\n%s\n" title;
    header ();
    List.iter
      (fun (uo, row) ->
        Printf.printf "%-8d" uo;
        List.iter
          (fun (ui, (p : Design.point)) ->
            Printf.printf "%10s" (mark uo ui (render p)))
          row;
        print_newline ())
      points
  in
  table "balance B = F/C" (fun p ->
      let b = Design.balance p in
      if b > 999.0 then "inf" else Printf.sprintf "%.3f" b);
  table "execution cycles" (fun p -> string_of_int (Design.cycles p));
  table "area (slices)" (fun p ->
      let s = Design.space p in
      if s > capacity then "-" else string_of_int s);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2: speedups of the selected design over the baseline *)

let paper_speedups =
  (* Table 2 of the paper, for side-by-side comparison. *)
  [
    ("fir", (7.67, 5.56));
    ("mm", (17.26, 7.53));
    ("jac", (4.55, 34.61));
    ("pat", (13.36, 4.01));
    ("sobel", (3.87, 3.90));
  ]

let table2 () =
  Printf.printf
    "## tab2: Speedup of the selected design over the baseline (no unrolling)\n";
  Printf.printf "%-8s %18s %18s %14s %14s\n" "kernel" "non-pipelined"
    "pipelined" "paper(non-p.)" "paper(pipe.)";
  List.iter
    (fun name ->
      let speedup pipelined =
        let c = ctx ~pipelined name in
        let r = Search.run c in
        let base = Design.evaluate c (Design.ubase c) in
        float_of_int (Design.cycles base)
        /. float_of_int (Design.cycles r.Search.selected)
      in
      let pn, pp = List.assoc name paper_speedups in
      Printf.printf "%-8s %18.2f %18.2f %14.2f %14.2f\n" name (speedup false)
        (speedup true) pn pp)
    Kernels.names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Fraction of the design space searched (Section 6.3) *)

let fraction () =
  Printf.printf
    "## frac: designs synthesized by the search vs. the full design space\n";
  Printf.printf "%-8s %-6s %8s %10s %10s %16s %9s\n" "kernel" "mem" "evals"
    "space" "searched" "selected" "vs best";
  let total = ref 0 and totsp = ref 0 in
  let evals = ref 0 and hits = ref 0 and pruned = ref 0 in
  let smhits = ref 0 in
  List.iter
    (fun pipelined ->
      List.iter
        (fun name ->
          let c = ctx ~pipelined name in
          let r = Search.run c in
          let visited = Search.designs_evaluated r in
          (* The sweep oracle itself runs two-tier: tier-1 bounds prune
             points that provably cannot beat the best fitting design,
             without changing which design that is. *)
          let sp = Space.sweep ~max_product:(sweep_product ()) ~prune:true c in
          evals := !evals + c.Design.stats.Design.evaluations;
          hits := !hits + c.Design.stats.Design.cache_hits;
          pruned := !pruned + sp.Space.pruned_bound;
          smhits := !smhits + c.Design.stats.Design.sched_memo_hits;
          let best = Option.get (Space.best_fitting c sp) in
          let ratio =
            float_of_int (Design.cycles r.Search.selected)
            /. float_of_int (Design.cycles best.Space.point)
          in
          total := !total + visited;
          totsp := !totsp + sp.Space.total_designs;
          Printf.printf "%-8s %-6s %8d %10d %9.2f%% %16s %8.2fx\n" name
            (if pipelined then "pipe" else "nonp")
            visited sp.Space.total_designs
            (100.0 *. Space.fraction_searched sp ~visited)
            (vec_str r.Search.selected.Design.vector)
            ratio)
        Kernels.names)
    [ true; false ];
  Printf.printf "%-8s %-6s %8d %10d %9.2f%%\n" "overall" "" !total !totsp
    (100.0 *. float_of_int !total /. float_of_int !totsp);
  Printf.printf
    "# stats: %d designs synthesized, %d served from the evaluation cache, \
     %d sweep points pruned by quick estimates, %d block tri-schedules \
     served from the fingerprint memo\n"
    !evals !hits !pruned !smhits;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Machine-readable DSE performance trajectory: BENCH_dse.json *)

(* Hand-rolled serialization — the repo carries no JSON dependency and
   the schema is flat. *)
let json_of_fields fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

(** Directory for the session phase's persistent store; settable with
    [--cache-dir] so CI can carry it across jobs. Without the flag a
    throwaway directory is used and removed afterwards. *)
let bench_cache_dir : string option ref = ref None

let median3 f =
  List.nth (List.sort compare (List.init 3 (fun _ -> f ()))) 1

(** Per-point scalar-replacement time in ms, median of 3 full pipeline
    runs at [vector]: the span from the unroll-and-jam stage boundary to
    the scalar-replacement one, read through [Pipeline.apply ?observe]. *)
let scalar_replace_ms name vector =
  let k = Option.get (Kernels.find name) in
  let opts = { Transform.Pipeline.default with Transform.Pipeline.vector } in
  let once () =
    let start = ref 0.0 and ms = ref 0.0 in
    let observe stage ~before:_ ~after:_ =
      match stage with
      | Transform.Pipeline.Unroll_jam -> start := Dse.Util.now ()
      | Transform.Pipeline.Scalar_replace ->
          ms := 1000.0 *. (Dse.Util.now () -. !start)
      | _ -> ()
    in
    ignore (Transform.Pipeline.apply ~observe opts k);
    !ms
  in
  median3 once

(** Per-point schedule time in ms with scalar replacement off
    ([sr- peel- licm+]: every unrolled load stays a memory access, the
    joint sweep's largest blocks), median of 3 estimates of the
    transformed kernel, each with a fresh schedule memo. *)
let schedule_ms name vector =
  let k = Option.get (Kernels.find name) in
  let opts =
    Transform.Pipeline.apply_config ~base:Transform.Pipeline.default
      { vector; tile = None; scalar_replace = false; peel = false; licm = true }
  in
  let kt = (Transform.Pipeline.apply opts k).Transform.Pipeline.kernel in
  let profile = Hls.Estimate.default_profile () in
  let once () =
    let timers = Hls.Estimate.fresh_timers () in
    ignore
      (Hls.Estimate.estimate ~sched_memo:(Hls.Schedule.memo_create ()) ~timers
         profile kt);
    1000.0 *. timers.Hls.Estimate.schedule_seconds
  in
  median3 once

(** Per-point scaling columns of the long-sweep kernels (jac, sobel;
    both 30x30 nests): [measure] at the fully unrolled product-900
    point, and the mean of the two product-450 points that halve one
    loop. A layer linear in the unrolled body keeps p900 near 2x p450;
    the CI gate bounds the ratio (2x for scalar replacement, 2.5x for
    scheduling). *)
let scaling_columns ~label ~key measure name =
  let axes = axes_of name in
  let k = Option.get (Kernels.find name) in
  let trips =
    List.map Ir.Ast.loop_trip (Ir.Loop_nest.spine k.Ir.Ast.k_body)
  in
  let t_o, t_i =
    match trips with o :: i :: _ -> (o, i) | _ -> assert false
  in
  let point uo ui = measure name [ (axes.outer, uo); (axes.inner, ui) ] in
  let p450 = (point (t_o / 2) t_i +. point t_o (t_i / 2)) /. 2.0 in
  let p900 = point t_o t_i in
  Printf.printf "#  %-14s %-6s p450 %.1f ms, p900 %.1f ms (%.2fx)\n" label name
    p450 p900 (p900 /. p450);
  [
    (key ^ "_ms_p450", Printf.sprintf "%.3f" p450);
    (key ^ "_ms_p900", Printf.sprintf "%.3f" p900);
  ]

let scaling_kernel_columns name =
  if not (List.mem name [ "jac"; "sobel" ]) then []
  else begin
    let sr =
      scaling_columns ~label:"scalar-replace" ~key:"scalar_replace"
        scalar_replace_ms name
    in
    sr @ scaling_columns ~label:"schedule sr-" ~key:"schedule" schedule_ms name
  end

(** Per kernel: search wall time and evaluations, selected design, the
    exhaustive-sweep wall time with and without tier-1 pruning on fresh
    contexts (sequential, so the times are comparable), and the batched
    session's cold-vs-warm wall times over the persistent store. Emitted
    as one JSON document so the perf trajectory is trackable across PRs. *)
let dse_json () =
  let file =
    if !smoke then Filename.temp_file "BENCH_dse" ".json" else "BENCH_dse.json"
  in
  let mp = sweep_product () in
  Printf.printf "## json: DSE performance counters -> %s\n" file;
  (* Session phase: the paper's five kernels as one batched session over
     a persistent store — cold (loads ignored, results saved), then warm
     (everything served from the store). The warm run must perform zero
     full syntheses and select bit-identical designs; smoke mode asserts
     both, so CI catches a persistence regression. *)
  let session_dir, transient =
    match !bench_cache_dir with
    | Some d -> (d, false)
    | None ->
        let f = Filename.temp_file "defacto-bench-cache" "" in
        Sys.remove f;
        (f, true)
  in
  let tasks =
    List.map
      (fun name -> { Engine.name; kernel = Option.get (Kernels.find name) })
      Kernels.names
  in
  let cold_session =
    Dse.Driver.run_many ~cache_dir:session_dir ~cold:true tasks
  in
  let warm_session = Dse.Driver.run_many ~cache_dir:session_dir tasks in
  if transient then ignore (Engine.Persist.clear ~cache_dir:session_dir);
  let session_extra =
    List.map2
      (fun (c : Dse.Driver.outcome) (w : Dse.Driver.outcome) ->
        let unchanged =
          Design.vector_equal c.Dse.Driver.search.Search.selected.Design.vector
            w.Dse.Driver.search.Search.selected.Design.vector
        in
        if !smoke then begin
          if w.Dse.Driver.stats.Design.evaluations <> 0 then
            failwith
              (Printf.sprintf
                 "warm session synthesized %d design(s) for %s (want 0)"
                 w.Dse.Driver.stats.Design.evaluations
                 c.Dse.Driver.task.Engine.name);
          if not unchanged then
            failwith
              ("warm session selected a different design for "
             ^ c.Dse.Driver.task.Engine.name)
        end;
        ( c.Dse.Driver.task.Engine.name,
          [
            ( "search_seconds_cold_session",
              Printf.sprintf "%.6f" c.Dse.Driver.wall_seconds );
            ( "search_seconds_warm",
              Printf.sprintf "%.6f" w.Dse.Driver.wall_seconds );
            ( "warm_syntheses",
              string_of_int w.Dse.Driver.stats.Design.evaluations );
            ("warm_loaded_points", string_of_int w.Dse.Driver.loaded_points);
            ( "session_sched_memo_hits",
              string_of_int c.Dse.Driver.stats.Design.sched_memo_hits );
            ("warm_selection_unchanged", if unchanged then "true" else "false");
          ] ))
      cold_session.Dse.Driver.outcomes warm_session.Dse.Driver.outcomes
  in
  Printf.printf
    "#  session: cold %d syntheses, warm %d; %d cross-kernel memo shapes\n"
    cold_session.Dse.Driver.total.Design.evaluations
    warm_session.Dse.Driver.total.Design.evaluations
    cold_session.Dse.Driver.sched_memo_shapes;
  Printf.printf "%-8s %10s %8s %12s %12s %8s %8s %8s %11s %6s\n"
    "kernel" "search(ms)" "evals" "sweep(ms)" "pruned(ms)" "synth" "pruned"
    "smhits" "verify(ms)" "viol";
  (* Kernels on which the joint configuration sweep beat the unroll-only
     sweep outright (fewer cycles, or fewer slices at equal cycles). *)
  let joint_wins = ref 0 in
  let entries =
    List.map
      (fun name ->
        let c = ctx name in
        let t0 = Dse.Util.now () in
        let r = Search.run c in
        let t_search = Dse.Util.now () -. t0 in
        (* Exhaustive and two-tier sweeps on fresh contexts: same
           lattice, cold caches, one domain each, so wall times and
           synthesis counts are directly comparable. *)
        let c_full = ctx name in
        let gc0 = Gc.minor_words () in
        let t0 = Dse.Util.now () in
        let sp_full = Space.sweep ~max_product:mp ~jobs:1 c_full in
        let t_full = Dse.Util.now () -. t0 in
        let gc_full = Gc.minor_words () -. gc0 in
        let c_pruned = ctx name in
        let t0 = Dse.Util.now () in
        let sp_pruned = Space.sweep ~max_product:mp ~prune:true ~jobs:1 c_pruned in
        let t_pruned = Dse.Util.now () -. t0 in
        (* Verified sweep: same lattice with per-point translation
           validation ([--verify]); selections must be bit-identical and
           violations zero on the paper kernels. *)
        let c_verified =
          let k = Option.get (Kernels.find name) in
          Design.context ~profile:(Estimate.default_profile ()) ~verify:true k
        in
        let t0 = Dse.Util.now () in
        let sp_verified = Space.sweep ~max_product:mp ~jobs:1 c_verified in
        let t_verified = Dse.Util.now () -. t0 in
        (* Joint configuration space: same product bound, fresh context,
           one domain — comparable with the sweeps above. The smoke
           asserts the joint winner is never behind the unroll-only
           winner (the joint space is a superset, and the pruning is
           admissible). A second run on two domains must select the
           same configuration. *)
        let c_joint = ctx name in
        let t0 = Dse.Util.now () in
        let jt = Space.sweep_joint ~max_product:mp ~jobs:1 c_joint in
        let t_joint = Dse.Util.now () -. t0 in
        let c_joint2 = ctx name in
        let jt2 = Space.sweep_joint ~max_product:mp ~jobs:2 c_joint2 in
        let best_full = Option.get (Space.best_fitting c_full sp_full) in
        let best_pruned = Option.get (Space.best_fitting c_pruned sp_pruned) in
        let best_verified = Option.get (Space.best_fitting c_verified sp_verified) in
        let sched_memo_hits =
          c.Design.stats.Design.sched_memo_hits
          + c_full.Design.stats.Design.sched_memo_hits
          + c_pruned.Design.stats.Design.sched_memo_hits
        in
        let jb = Option.get (Space.joint_best c_joint jt) in
        let jb2 = Option.get (Space.joint_best c_joint2 jt2) in
        let jb_cycles = Design.cycles jb.Space.point in
        let jb_slices = Design.space jb.Space.point in
        let ub_cycles = Design.cycles best_full.Space.point in
        let ub_slices = Design.space best_full.Space.point in
        let joint_strictly_better =
          jb_cycles < ub_cycles || (jb_cycles = ub_cycles && jb_slices < ub_slices)
        in
        if joint_strictly_better then incr joint_wins;
        if !smoke && jb_cycles > ub_cycles then
          failwith
            (Printf.sprintf
               "joint sweep selected a slower design than unroll-only on %s \
                (%d vs %d cycles)"
               name jb_cycles ub_cycles);
        Printf.printf "%-8s %10.1f %8d %12.1f %12.1f %8d %8d %8d %11.1f %6d\n"
          name
          (1000.0 *. t_search)
          r.Search.stats.Design.evaluations
          (1000.0 *. t_full) (1000.0 *. t_pruned)
          c_pruned.Design.stats.Design.evaluations sp_pruned.Space.pruned_bound
          sched_memo_hits
          (1000.0 *. t_verified)
          c_verified.Design.stats.Design.verify_violations;
        Printf.printf
          "#  joint %-8s %d cfgs -> %d evald (%d illegal, %d redundant, %d \
           bound-pruned) in %.1f ms; best %s c=%d s=%d%s\n"
          name jt.Space.space_size
          (List.length jt.Space.points)
          jt.Space.pruned_illegal jt.Space.pruned_redundant
          jt.Space.pruned_bound (1000.0 *. t_joint)
          (Design.config_to_string jb.Space.config)
          jb_cycles jb_slices
          (if joint_strictly_better then " (beats unroll-only)" else "");
        json_of_fields
          ([
            ("kernel", Printf.sprintf "%S" name);
            ("search_seconds", Printf.sprintf "%.6f" t_search);
            ( "search_evaluations",
              string_of_int r.Search.stats.Design.evaluations );
            ( "selected_vector",
              Printf.sprintf "%S" (vec_str r.Search.selected.Design.vector) );
            ( "selected_cycles",
              string_of_int (Design.cycles r.Search.selected) );
            ("sweep_max_product", string_of_int mp);
            ("sweep_points", string_of_int (List.length sp_full.Space.points));
            ("sweep_seconds_full", Printf.sprintf "%.6f" t_full);
            ("sweep_seconds_pruned", Printf.sprintf "%.6f" t_pruned);
            ( "sweep_evaluations_full",
              string_of_int c_full.Design.stats.Design.evaluations );
            ( "sweep_evaluations_pruned",
              string_of_int c_pruned.Design.stats.Design.evaluations );
            ( "sweep_cache_hits_pruned",
              string_of_int c_pruned.Design.stats.Design.cache_hits );
            ( "quick_estimates",
              string_of_int c_pruned.Design.stats.Design.quick_estimates );
            ("pruned", string_of_int sp_pruned.Space.pruned_bound);
            ("sched_memo_hits", string_of_int sched_memo_hits);
            ( "search_sched_memo_hits",
              string_of_int r.Search.stats.Design.sched_memo_hits );
            ( "sweep_sched_memo_hits_full",
              string_of_int c_full.Design.stats.Design.sched_memo_hits );
            ( "sweep_sched_memo_hits_pruned",
              string_of_int c_pruned.Design.stats.Design.sched_memo_hits );
            ( "sweep_sched_memo_shapes_full",
              string_of_int (Design.sched_memo_size c_full) );
            ( "sweep_dfg_seconds_full",
              Printf.sprintf "%.6f" c_full.Design.stats.Design.dfg_seconds );
            ( "sweep_schedule_seconds_full",
              Printf.sprintf "%.6f" c_full.Design.stats.Design.schedule_seconds
            );
            ( "sweep_layout_seconds_full",
              Printf.sprintf "%.6f" c_full.Design.stats.Design.layout_seconds );
            ( "sweep_transform_seconds_full",
              Printf.sprintf "%.6f"
                c_full.Design.stats.Design.transform_seconds );
            ( "sweep_estimate_seconds_full",
              Printf.sprintf "%.6f" c_full.Design.stats.Design.estimate_seconds
            );
            ("sweep_gc_minor_mwords_full", Printf.sprintf "%.3f" (gc_full /. 1e6));
            ( "best_cycles_full",
              string_of_int (Design.cycles best_full.Space.point) );
            ( "best_cycles_pruned",
              string_of_int (Design.cycles best_pruned.Space.point) );
            ("sweep_seconds_verified", Printf.sprintf "%.6f" t_verified);
            ( "checked_points",
              string_of_int c_verified.Design.stats.Design.checked_points );
            ( "verify_violations",
              string_of_int c_verified.Design.stats.Design.verify_violations );
            ( "flow_builds_verified",
              string_of_int c_verified.Design.stats.Design.flow_builds );
            ( "flow_solves_verified",
              string_of_int c_verified.Design.stats.Design.flow_solves );
            ( "flow_seconds_verified",
              Printf.sprintf "%.6f" c_verified.Design.stats.Design.flow_seconds
            );
            ( "verified_selection_unchanged",
              if
                Design.config_equal best_full.Space.config
                  best_verified.Space.config
              then "true"
              else "false" );
            ( "selection_unchanged",
              if
                Design.config_equal best_full.Space.config
                  best_pruned.Space.config
              then "true"
              else "false" );
            ("joint_space_size", string_of_int jt.Space.space_size);
            ("joint_pruned_illegal", string_of_int jt.Space.pruned_illegal);
            ( "joint_pruned_redundant",
              string_of_int jt.Space.pruned_redundant );
            ("joint_pruned_bound", string_of_int jt.Space.pruned_bound);
            ("joint_evaluated", string_of_int (List.length jt.Space.points));
            ("joint_seconds", Printf.sprintf "%.6f" t_joint);
            ( "joint_selection",
              Printf.sprintf "%S" (Design.config_to_string jb.Space.config) );
            ("joint_selection_cycles", string_of_int jb_cycles);
            ("joint_selection_slices", string_of_int jb_slices);
            ("unroll_selection_cycles", string_of_int ub_cycles);
            ( "joint_strictly_better",
              if joint_strictly_better then "true" else "false" );
            ( "joint_parallel_selection_unchanged",
              if
                Design.config_equal jb.Space.config jb2.Space.config
                && jb.Space.point.Design.estimate
                   = jb2.Space.point.Design.estimate
              then "true"
              else "false" );
          ]
          @ List.assoc name session_extra
          @ scaling_kernel_columns name))
      Kernels.names
  in
  (* At the smoke lattice (unroll product <= 16) the joint winner often
     ties the unroll-only winner; widen fir's lattice enough to show the
     strict win the full bench records, so CI still covers it. *)
  if !joint_wins = 0 then begin
    let c_u = ctx "fir" in
    let su = Space.sweep ~max_product:128 ~jobs:1 c_u in
    let bu = Option.get (Space.best_fitting c_u su) in
    let c_j = ctx "fir" in
    let jt = Space.sweep_joint ~max_product:128 c_j in
    let jb = Option.get (Space.joint_best c_j jt) in
    let better =
      Design.cycles jb.Space.point < Design.cycles bu.Space.point
      || Design.cycles jb.Space.point = Design.cycles bu.Space.point
         && Design.space jb.Space.point < Design.space bu.Space.point
    in
    Printf.printf
      "#  joint fir @ product<=128: best %s c=%d s=%d vs unroll-only c=%d \
       s=%d\n"
      (Design.config_to_string jb.Space.config)
      (Design.cycles jb.Space.point)
      (Design.space jb.Space.point)
      (Design.cycles bu.Space.point)
      (Design.space bu.Space.point);
    if better then incr joint_wins
  end;
  if !smoke && !joint_wins = 0 then
    failwith "joint sweep strictly beat unroll-only on no kernel";
  let oc = open_out file in
  output_string oc ("[\n  " ^ String.concat ",\n  " entries ^ "\n]\n");
  close_out oc;
  if !smoke then Sys.remove file;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 6.4: accuracy of estimates vs implemented designs *)

let accuracy () =
  Printf.printf
    "## acc: behavioral estimates vs. implemented designs (P&R model)\n";
  Printf.printf "%-8s %-22s %8s %8s %10s %9s %9s\n" "kernel" "design" "cycles"
    "cyc(P&R)" "clock(ns)" "slices" "sl(P&R)";
  List.iter
    (fun name ->
      let c = ctx name in
      let r = Search.run c in
      let show label (p : Design.point) =
        let impl = Hls.Lowlevel.place_and_route p.Design.estimate in
        Printf.printf "%-8s %-22s %8d %8d %10.1f %9d %9d\n" name
          (label ^ vec_str p.Design.vector)
          (Design.cycles p) impl.Hls.Lowlevel.cycles
          impl.Hls.Lowlevel.achieved_clock_ns (Design.space p)
          impl.Hls.Lowlevel.actual_slices
      in
      show "baseline" (Design.evaluate c (Design.ubase c));
      show "selected" r.Search.selected;
      let big =
        Design.evaluate c
          (List.map
             (fun (l : Ir.Ast.loop) ->
               (l.Ir.Ast.index, min 16 (Ir.Ast.loop_trip l)))
             c.Design.spine)
      in
      show "large" big)
    Kernels.names;
  Printf.printf
    "# expected shapes: cycles identical; clock degradation small for\n\
     # selected designs, large for over-sized ones; slices grow super-linearly.\n\n"

(* ------------------------------------------------------------------ *)
(* Ablation: contribution of each transformation to the selected design *)

let ablation () =
  Printf.printf
    "## ablation: selected-design cycles per compiler configuration\n";
  Printf.printf "%-8s %10s %12s %12s %12s %12s\n" "kernel" "full" "no-banks"
    "no-chains" "no-replace" "1-memory";
  List.iter
    (fun name ->
      let run ?(memories = 4) scalar =
        let k = Option.get (Kernels.find name) in
        let device =
          { Hls.Device.default with Hls.Device.num_memories = memories }
        in
        let profile = { (Estimate.default_profile ()) with Estimate.device } in
        let pipeline = { Transform.Pipeline.default with scalar } in
        let c = Design.context ~profile ~pipeline k in
        let r = Search.run c in
        Design.cycles r.Search.selected
      in
      let dflt = Transform.Scalar_replace.default_config in
      Printf.printf "%-8s %10d %12d %12d %12d %12d\n" name (run dflt)
        (run { dflt with across_loops = false })
        (run { dflt with chains = false })
        (run { dflt with across_loops = false; chains = false; max_registers = 0 })
        (run ~memories:1 dflt))
    Kernels.names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Gallery: the search on the wider application class the paper's
   Section 2.4 motivates (no paper analogue; generalization evidence) *)

let gallery () =
  Printf.printf
    "## gallery: exploration on the extended kernel suite (pipelined)\n";
  Printf.printf "%-12s %16s %10s %10s %10s %10s\n" "kernel" "selected" "cycles"
    "slices" "balance" "speedup";
  List.iter
    (fun name ->
      let k = Option.get (Gallery.find name) in
      let profile = Estimate.default_profile () in
      let c = Design.context ~profile k in
      let r = Search.run c in
      let base = Design.evaluate c (Design.ubase c) in
      let sel = r.Search.selected in
      Printf.printf "%-12s %16s %10d %10d %10.3f %9.2fx\n" name
        (vec_str sel.Design.vector) (Design.cycles sel) (Design.space sel)
        (Design.balance sel)
        (float_of_int (Design.cycles base) /. float_of_int (Design.cycles sel)))
    Gallery.names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock of one full search per kernel (the paper: under
   five minutes per kernel on year-2002 hardware; ours run in
   milliseconds) *)

let bechamel_speed () =
  let open Bechamel in
  let test name =
    Test.make ~name (Staged.stage (fun () -> ignore (Search.run (ctx name))))
  in
  let tests =
    Test.make_grouped ~name:"dse-search" (List.map test Kernels.names)
  in
  Printf.printf "## speed: one full design space exploration per kernel\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some [ est ] -> Printf.printf "%-28s %10.3f ms/search\n" name (est /. 1e6)
      | _ -> ())
    (List.sort compare names);
  Printf.printf "# paper: the search ran in under 5 minutes per kernel.\n\n"

(* ------------------------------------------------------------------ *)

let artifacts : (string * (unit -> unit)) list =
  [
    ("fig4", fun () -> figure ~id:"fig4" ~pipelined:false "fir");
    ("fig5", fun () -> figure ~id:"fig5" ~pipelined:true "fir");
    ("fig6", fun () -> figure ~id:"fig6" ~pipelined:false "mm");
    ("fig7", fun () -> figure ~id:"fig7" ~pipelined:true "mm");
    ("fig8", fun () -> figure ~id:"fig8" ~pipelined:true "jac");
    ("fig9", fun () -> figure ~id:"fig9" ~pipelined:true "pat");
    ("fig10", fun () -> figure ~id:"fig10" ~pipelined:true "sobel");
    ("tab2", table2);
    ("frac", fraction);
    ("json", dse_json);
    ("acc", accuracy);
    ("ablation", ablation);
    ("gallery", gallery);
    ("speed", bechamel_speed);
  ]

(** The CI subset: one figure, the speedup table, the two-tier sweep
    statistics and the JSON emitter — every distinct code path, small
    lattices, no Bechamel sampling. *)
let smoke_artifacts = [ "fig5"; "tab2"; "frac"; "json" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec strip = function
    | [] -> []
    | "--smoke" :: rest ->
        smoke := true;
        strip rest
    | "--cache-dir" :: dir :: rest ->
        bench_cache_dir := Some dir;
        strip rest
    | a :: rest -> a :: strip rest
  in
  let args = strip args in
  match args with
  | [ "--list" ] -> List.iter (fun (id, _) -> print_endline id) artifacts
  | [ "--only"; id ] -> (
      match List.assoc_opt id artifacts with
      | Some f -> f ()
      | None ->
          prerr_endline ("unknown artifact " ^ id);
          exit 1)
  | [] ->
      Printf.printf
        "# DEFACTO-style design space exploration - evaluation reproduction\n";
      Printf.printf "# device: %s, %d memories, clock %.0f ns\n\n"
        Hls.Device.default.Hls.Device.name
        Hls.Device.default.Hls.Device.num_memories
        Hls.Device.default.Hls.Device.clock_ns;
      let ids = if !smoke then smoke_artifacts else List.map fst artifacts in
      List.iter (fun id -> (List.assoc id artifacts) ()) ids
  | _ ->
      prerr_endline
        "usage: main.exe [--smoke] [--cache-dir DIR] [--list | --only \
         <artifact>]";
      exit 1
