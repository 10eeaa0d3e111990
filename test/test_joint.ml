(** The joint transform-configuration space: persistent-store
    invalidation when any base pipeline option changes, soundness of the
    legality pre-pruner (rejected configurations raise [Stage_error] or
    demonstrably change results; accepted ones evaluate cleanly under
    translation validation), tier-1 admissibility over the joint space
    (tiling included), configuration normalization, and the joint
    sweep's dominance over the unroll-only sweep on the built-in
    kernels. *)

open Ir
module Design = Dse.Design
module Space = Dse.Space
module Store = Engine.Store
module Backend = Engine.Backend
module Persist = Engine.Persist
module Pipeline = Transform.Pipeline

let profile = Hls.Estimate.default_profile ()
let kernel name = Option.get (Kernels.find name)

let fresh_dir () =
  let f = Filename.temp_file "defacto-test-joint" "" in
  Sys.remove f;
  f

(* ------------------------------------------------------------------ *)
(* Satellite: the persisted store goes cold when any pipeline option
   changes. [Persist.config_string] digests the full base options —
   peel, LICM, tile and the scalar-replacement budget all land in the
   key, so flipping any of them reads as a different store. *)

let option_variants : (string * Pipeline.options) list =
  let d = Pipeline.default in
  [
    ("default", d);
    ("no-peel", { d with Pipeline.peel = false });
    ("no-licm", { d with Pipeline.licm = false });
    ("tiled", { d with Pipeline.tile = Some ("i", 4) });
    ( "no-scalar",
      { d with Pipeline.scalar = { d.Pipeline.scalar with max_registers = 0 } }
    );
  ]

let test_config_string_distinct () =
  let strings =
    List.map
      (fun (n, opts) ->
        (n, Persist.config_string ~backend:Backend.default.Backend.name profile opts))
      option_variants
  in
  List.iteri
    (fun i (ni, si) ->
      List.iteri
        (fun j (nj, sj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "config strings differ: %s vs %s" ni nj)
              false (si = sj))
        strings)
    strings

let test_persist_invalidation () =
  let k = kernel "fir" in
  let dir = fresh_dir () in
  let cfg_of opts =
    Persist.config_string ~backend:Backend.default.Backend.name profile opts
  in
  let ctx = Design.context ~profile k in
  ignore (Design.evaluate ctx [ ("i", 2) ]);
  ignore (Design.evaluate ctx [ ("i", 4) ]);
  Persist.save_points ~cache_dir:dir
    ~config:(cfg_of Pipeline.default)
    ~kernel_key:(Persist.kernel_key k) ctx.Design.store;
  (* Same options: the points come back. *)
  let warm = Store.create () in
  let n_same =
    Persist.load_points ~cache_dir:dir
      ~config:(cfg_of Pipeline.default)
      ~kernel_key:(Persist.kernel_key k) warm
  in
  Alcotest.(check int) "same options reload the points" 2 n_same;
  (* Any flipped option: the store is cold. *)
  List.iter
    (fun (name, opts) ->
      if name <> "default" then begin
        let s = Store.create () in
        let n =
          Persist.load_points ~cache_dir:dir ~config:(cfg_of opts)
            ~kernel_key:(Persist.kernel_key k) s
        in
        Alcotest.(check int)
          (Printf.sprintf "store is cold under %s options" name)
          0 n
      end)
    option_variants;
  ignore (Persist.clear ~cache_dir:dir)

(* ------------------------------------------------------------------ *)
(* Random joint configurations over the random-kernel generator. The
   generated kernels are scalar-free perfect nests, so the only illegal
   configurations are tiles naming no loop — which must raise
   [Stage_error] when force-evaluated. The deterministic recurrence
   test below witnesses the other [Config_illegal] branch. *)

let gen_config_for (k : Ast.kernel) : Pipeline.config QCheck2.Gen.t =
  let open QCheck2.Gen in
  let spine = Loop_nest.spine k.Ast.k_body in
  let* vector = Helpers.gen_vector_for k in
  let* tile =
    let spine_tiles =
      List.map
        (fun (l : Ast.loop) ->
          let* t = int_range 2 (max 2 (Ast.loop_trip l)) in
          return (Some (l.Ast.index, t)))
        spine
    in
    oneof (return None :: return (Some ("zz", 4)) :: spine_tiles)
  in
  let* scalar_replace = bool in
  let* peel = bool in
  let* licm = bool in
  return { Pipeline.vector; tile; scalar_replace; peel; licm }

let gen_kernel_and_config : (Ast.kernel * Pipeline.config) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* k = Helpers.gen_kernel in
  let* c = gen_config_for k in
  return (k, c)

(* Force-evaluate a configuration through the raw pipeline (bypassing
   the context's normalization, which exists to repair exactly the
   spellings the pruner rejects) and compare against the source. *)
let force_outcome (k : Ast.kernel) (c : Pipeline.config) =
  let inputs = Helpers.inputs_for k in
  let reference = Eval.observables (Eval.run ~inputs k) in
  match
    Pipeline.apply (Pipeline.apply_config ~base:Pipeline.default c) k
  with
  | exception Pipeline.Stage_error _ -> `Raises
  | r ->
      if Eval.observables (Eval.run ~inputs r.Pipeline.kernel) = reference
      then `Clean
      else `Differs

let prune_soundness_prop (k, c) =
  match Check.Legality.config_verdict k c with
  | Check.Legality.Config_illegal _ -> (
      match force_outcome k c with
      | `Raises | `Differs -> true
      | `Clean ->
          QCheck2.Test.fail_reportf
            "illegal config %s evaluated cleanly on:@.%s"
            (Pipeline.config_to_string c)
            (Helpers.kernel_print k))
  | Check.Legality.Config_legal | Check.Legality.Config_redundant _ -> (
      (* Accepted configurations evaluate cleanly — through the real
         context path, under translation validation. *)
      let ctx = Design.context ~profile ~verify:true k in
      match Design.evaluate_config ctx c with
      | exception e ->
          QCheck2.Test.fail_reportf
            "accepted config %s raised %s on:@.%s"
            (Pipeline.config_to_string c) (Printexc.to_string e)
            (Helpers.kernel_print k)
      | _ ->
          let s = Design.stats_snapshot ctx in
          s.Design.verify_violations = 0)

let test_prune_soundness =
  Helpers.qtest "joint legality pruning is sound" ~count:150
    gen_kernel_and_config prune_soundness_prop

(* A configuration canonicalized as redundant denotes the same design:
   the context normalizes both spellings to the same point. *)
let redundant_agrees_prop (k, c) =
  match Check.Legality.config_verdict k c with
  | Check.Legality.Config_redundant canonical ->
      let ctx = Design.context ~profile k in
      let p = Design.evaluate_config ctx c in
      let p' = Design.evaluate_config ctx canonical in
      if p.Design.estimate = p'.Design.estimate then true
      else
        QCheck2.Test.fail_reportf
          "redundant %s and canonical %s disagree (cycles %d vs %d) on:@.%s"
          (Pipeline.config_to_string c)
          (Pipeline.config_to_string canonical)
          p.Design.estimate.Hls.Estimate.cycles
          p'.Design.estimate.Hls.Estimate.cycles (Helpers.kernel_print k)
  | _ -> true

let test_redundant_agrees =
  Helpers.qtest "redundant spellings evaluate identically" ~count:150
    gen_kernel_and_config redundant_agrees_prop

(* ------------------------------------------------------------------ *)
(* Deterministic witness for the hazard branch of [Config_illegal]: the
   non-commutative scalar recurrence (dependence-blind, flow-graph
   caught). Jamming it really does change results, so the pruner is
   rejecting genuinely unsafe configurations, not hedging. *)

let recurrence_kernel =
  let mk_loop index trip body =
    { Ast.index; lo = 0; hi = trip; step = 1; body; l_span = None }
  in
  {
    Ast.k_name = "rec";
    k_arrays = [ Ast.array_decl "a" [ 4; 4 ]; Ast.array_decl "out" [ 1 ] ];
    k_scalars = [ Ast.scalar_decl "s" ];
    k_body =
      [
        Ast.Assign (Ast.Lvar "s", Ast.Int 0);
        Ast.For
          (mk_loop "i" 4
             [
               Ast.For
                 (mk_loop "j" 4
                    [
                      Ast.Assign
                        ( Ast.Lvar "s",
                          Ast.Bin
                            ( Ast.Add,
                              Ast.Bin (Ast.Mul, Ast.Var "s", Ast.Int 2),
                              Ast.Arr ("a", [ Ast.Var "i"; Ast.Var "j" ]) ) );
                    ]);
             ]);
        Ast.Assign (Ast.Larr ("out", [ Ast.Int 0 ]), Ast.Var "s");
      ];
  }

let test_hazard_witness () =
  let c =
    {
      Pipeline.vector = [ ("i", 2); ("j", 1) ];
      tile = None;
      scalar_replace = true;
      peel = false;
      licm = false;
    }
  in
  (match Check.Legality.config_verdict recurrence_kernel c with
  | Check.Legality.Config_illegal _ -> ()
  | _ -> Alcotest.fail "expected the jam of the recurrence to be illegal");
  (match force_outcome recurrence_kernel c with
  | `Differs -> ()
  | `Raises -> Alcotest.fail "expected changed results, not an exception"
  | `Clean -> Alcotest.fail "jamming the recurrence did not change results");
  (* The unroll-only spelling of the same vector is just as illegal:
     the verdict does not depend on the toggles. *)
  let c0 = { c with Pipeline.scalar_replace = false } in
  match Check.Legality.config_verdict recurrence_kernel c0 with
  | Check.Legality.Config_illegal _ -> ()
  | _ -> Alcotest.fail "toggles must not mask the jam hazard"

(* A tile index naming no loop raises [Stage_error] — the other
   [Config_illegal] branch. *)
let test_unknown_tile_raises () =
  let k = kernel "fir" in
  let c =
    {
      Pipeline.vector = [];
      tile = Some ("zz", 4);
      scalar_replace = true;
      peel = true;
      licm = true;
    }
  in
  (match Check.Legality.config_verdict k c with
  | Check.Legality.Config_illegal _ -> ()
  | _ -> Alcotest.fail "unknown tile index must be illegal");
  match force_outcome k c with
  | `Raises -> ()
  | _ -> Alcotest.fail "unknown tile index must raise Stage_error"

(* ------------------------------------------------------------------ *)
(* Tier-1 admissibility over the joint space, tiling included: the
   quick bounds never exceed the synthesized estimate for any accepted
   configuration. *)

let admissible_prop (k, c) =
  match Check.Legality.config_verdict k c with
  | Check.Legality.Config_illegal _ -> true
  | _ -> (
      let ctx = Design.context ~profile k in
      let p = Design.evaluate_config ctx c in
      match Design.quick_config ctx c with
      | None -> QCheck2.Test.fail_reportf "no quick bound for %s"
                  (Pipeline.config_to_string c)
      | Some q ->
          if
            q.Hls.Quick.cycles_lb <= p.Design.estimate.Hls.Estimate.cycles
            && q.Hls.Quick.slices_lb <= p.Design.estimate.Hls.Estimate.slices
          then true
          else
            QCheck2.Test.fail_reportf
              "bound exceeds estimate for %s: cycles %d>%d or slices %d>%d on:@.%s"
              (Pipeline.config_to_string c) q.Hls.Quick.cycles_lb
              p.Design.estimate.Hls.Estimate.cycles q.Hls.Quick.slices_lb
              p.Design.estimate.Hls.Estimate.slices (Helpers.kernel_print k))

let test_admissible =
  Helpers.qtest "quick bounds admissible over the joint space" ~count:150
    gen_kernel_and_config admissible_prop

(* ------------------------------------------------------------------ *)
(* Configuration normalization. *)

let test_normalize () =
  let k = kernel "mm" in
  let ctx = Design.context ~profile k in
  let base = Design.base_config ctx [] in
  (* The tiled loop's unroll factor is forced to 1. *)
  let c =
    Design.normalize_config ctx
      { base with Design.vector = [ ("i", 2) ]; tile = Some ("i", 4) }
  in
  Alcotest.(check (option int)) "tiled loop pinned to factor 1" (Some 1)
    (List.assoc_opt "i" c.Design.vector);
  Alcotest.(check bool) "tile survives" true (c.Design.tile = Some ("i", 4));
  (* A non-divisor tile request is clamped to the divisor the
     strip-mine would use. *)
  let trip = Ast.loop_trip (List.hd ctx.Design.spine) in
  let c2 =
    Design.normalize_config ctx { base with Design.tile = Some ("i", trip - 1) }
  in
  (match c2.Design.tile with
  | Some ("i", t) ->
      Alcotest.(check bool) "clamped to a proper divisor" true
        (t > 1 && t < trip && trip mod t = 0)
  | other ->
      Alcotest.failf "expected a clamped tile, got %s"
        (match other with
        | None -> "none"
        | Some (i, t) -> Printf.sprintf "%s:%d" i t));
  (* Degenerate tiles are dropped. *)
  let c3 = Design.normalize_config ctx { base with Design.tile = Some ("i", 1) } in
  Alcotest.(check bool) "tile 1 dropped" true (c3.Design.tile = None);
  let c4 =
    Design.normalize_config ctx { base with Design.tile = Some ("i", trip) }
  in
  Alcotest.(check bool) "full-trip tile dropped" true (c4.Design.tile = None)

(* Under a tile whose strip-mined subscripts defeat the jam test, the
   pipeline unrolls only the innermost loop; normalization folds the
   outer factors it drops, so the copies share one cache key. *)
let test_normalize_tiled_fallback () =
  let k = kernel "sobel" in
  let ctx = Design.context ~profile k in
  let base = Design.base_config ctx [] in
  let c =
    { base with Design.vector = [ ("i", 2); ("j", 1) ]; tile = Some ("j", 15) }
  in
  let n = Design.normalize_config ctx c in
  Alcotest.(check (option int)) "i folded to 1" (Some 1)
    (List.assoc_opt "i" n.Design.vector);
  Alcotest.(check bool) "idempotent" true (Design.normalize_config ctx n = n);
  let build c =
    (Pipeline.apply (Pipeline.apply_config ~base:Pipeline.default c) k)
      .Pipeline.kernel
  in
  Alcotest.(check bool) "same design as the request" true (build c = build n)

(* Normalization is exact on the joint space's tile/toggle groups: a
   configuration builds the same kernel as its canonical key, and two
   different canonical vectors in one group build different kernels —
   every joint row names a design that was actually built. *)
let test_normalize_exact () =
  List.iter
    (fun name ->
      let k = kernel name in
      let ctx = Design.context ~profile k in
      let eligible =
        List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Design.spine
      in
      let vectors = Space.divisor_vectors ~max_product:32 ctx ~eligible in
      let build c =
        (Pipeline.apply (Pipeline.apply_config ~base:Pipeline.default c) k)
          .Pipeline.kernel
      in
      List.iter
        (fun tile ->
          List.iter
            (fun (scalar_replace, peel) ->
              let built = Hashtbl.create 16 in
              List.iter
                (fun vector ->
                  let c =
                    { Design.vector; tile; scalar_replace; peel; licm = true }
                  in
                  let n = Design.normalize_config ctx c in
                  let kn = build n in
                  let label = Design.config_to_string c in
                  Alcotest.(check bool) (label ^ ": builds its key's design") true
                    (build c = kn);
                  Hashtbl.iter
                    (fun v k' ->
                      if v <> n.Design.vector && k' = kn then
                        Alcotest.failf "%s: %s and %s build the same kernel" name
                          label
                          (Design.config_to_string { n with Design.vector = v }))
                    built;
                  Hashtbl.replace built n.Design.vector kn)
                vectors)
            [ (true, true); (false, false) ])
        (Space.joint_tile_options ctx
           ~candidates:Space.default_tile_candidates))
    [ "fir"; "mm"; "pat"; "jac"; "sobel" ]

(* The vector API is the base-configuration special case: evaluating a
   vector and then its [base_config] spelling is one cache entry. *)
let test_vector_config_agree () =
  let k = kernel "fir" in
  let ctx = Design.context ~profile k in
  let p = Design.evaluate ctx [ ("i", 4) ] in
  let before = Design.stats_snapshot ctx in
  let p' = Design.evaluate_config ctx (Design.base_config ctx [ ("i", 4) ]) in
  let after = Design.stats_snapshot ctx in
  Alcotest.(check bool) "same estimate" true
    (p.Design.estimate = p'.Design.estimate);
  Alcotest.(check int) "no extra synthesis"
    before.Design.evaluations after.Design.evaluations

(* ------------------------------------------------------------------ *)
(* Warm replay across the configuration-keyed schema: persist points for
   non-base configurations (tile and toggles included), reload into a
   fresh store, and re-evaluate with zero syntheses. *)

let test_warm_replay_configs () =
  let k = kernel "mm" in
  let dir = fresh_dir () in
  let cfg =
    Persist.config_string ~backend:Backend.default.Backend.name profile
      Pipeline.default
  in
  let ctx = Design.context ~profile k in
  let base = Design.base_config ctx [] in
  let configs =
    [
      { base with Design.vector = [ ("i", 2) ] };
      { base with Design.vector = [ ("j", 2) ]; tile = Some ("k", 4) };
      { base with Design.scalar_replace = false; peel = false };
      { base with Design.licm = false; tile = Some ("k", 8) };
    ]
  in
  let cold = List.map (Design.evaluate_config ctx) configs in
  Persist.save_points ~cache_dir:dir ~config:cfg
    ~kernel_key:(Persist.kernel_key k) ctx.Design.store;
  let warm_store = Store.create () in
  let loaded =
    Persist.load_points ~cache_dir:dir ~config:cfg
      ~kernel_key:(Persist.kernel_key k) warm_store
  in
  Alcotest.(check bool) "all points reload" true
    (loaded >= List.length configs);
  let warm_ctx = Design.context ~profile ~store:warm_store k in
  let warm = List.map (Design.evaluate_config warm_ctx) configs in
  let s = Design.stats_snapshot warm_ctx in
  Alcotest.(check int) "zero syntheses on replay" 0 s.Design.evaluations;
  List.iter2
    (fun (c : Design.point) (w : Design.point) ->
      Alcotest.(check bool) "warm estimate equals cold" true
        (c.Design.estimate = w.Design.estimate))
    cold warm;
  ignore (Persist.clear ~cache_dir:dir)

(* ------------------------------------------------------------------ *)
(* The joint sweep dominates the unroll-only sweep: its search space
   contains every unroll-only point, so its selection can never be
   worse, on any built-in kernel. *)

let test_joint_dominates () =
  List.iter
    (fun name ->
      let k = kernel name in
      let ctx = Design.context ~profile k in
      let sw = Space.sweep ~max_product:16 ~jobs:1 ctx in
      let jctx = Design.context ~profile k in
      let j = Space.sweep_joint ~max_product:16 jctx in
      match (Space.best_fitting ctx sw, Space.joint_best jctx j) with
      | Some u, Some jb ->
          let uc = u.Space.point.Design.estimate.Hls.Estimate.cycles in
          let jc = jb.Space.point.Design.estimate.Hls.Estimate.cycles in
          Alcotest.(check bool)
            (Printf.sprintf "%s: joint (%d) <= unroll-only (%d)" name jc uc)
            true (jc <= uc)
      | None, _ -> Alcotest.failf "%s: no unroll-only selection" name
      | _, None -> Alcotest.failf "%s: no joint selection" name)
    Kernels.names

(* The pruned joint sweep selects what the exhaustive one does: the
   bound-guided prune is admissible. The [full] backend has no bound
   tier, so its sweep evaluates every surviving configuration. *)
let test_best_first_matches_exhaustive () =
  List.iter
    (fun name ->
      let k = kernel name in
      let cx = Design.context ~profile ~backend:Backend.full k in
      let ex = Space.sweep_joint ~max_product:8 ~jobs:1 cx in
      Alcotest.(check int) (name ^ ": full backend prunes nothing") 0
        ex.Space.pruned_bound;
      let cb = Design.context ~profile k in
      let bf = Space.sweep_joint ~max_product:8 ~jobs:1 cb in
      match (Space.joint_best cx ex, Space.joint_best cb bf) with
      | Some a, Some b ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: best-first selection matches exhaustive" name)
            true
            (Design.config_equal a.Space.config b.Space.config
            && a.Space.point.Design.estimate = b.Space.point.Design.estimate)
      | None, None -> ()
      | _ -> Alcotest.failf "%s: sweeps disagree on having a selection" name)
    Kernels.names

(* The designs the unroll sweep and the Figure-2 search select on the
   recurrence kernel compute the source's values: the vectors whose jam
   would reorder the recurrence are dropped before any transform runs. *)
let sim_matches_eval (p : Design.point) =
  let inputs = Helpers.inputs_for recurrence_kernel in
  (Hls.Sim.run ~inputs profile p.Design.kernel).Hls.Sim.arrays
  = Eval.observables (Eval.run ~inputs recurrence_kernel)

let test_recurrence_sweep () =
  let ctx = Design.context ~profile recurrence_kernel in
  let sp = Space.sweep ~jobs:1 ctx in
  Alcotest.(check bool) "illegal vectors dropped" true
    (sp.Space.pruned_illegal > 0);
  match Space.best_fitting ctx sp with
  | None -> Alcotest.fail "no fitting design"
  | Some b ->
      Alcotest.(check bool) "selection computes the source's values" true
        (sim_matches_eval b.Space.point)

let test_recurrence_search () =
  let ctx = Design.context ~profile recurrence_kernel in
  let r = Dse.Search.run ctx in
  Alcotest.(check bool) "selection computes the source's values" true
    (sim_matches_eval r.Dse.Search.selected);
  (* A zero step budget ends the loop before any move is checked, on the
     illegal saturation vector itself. *)
  let config = { Dse.Search.default_config with max_steps = 0 } in
  let r0 = Dse.Search.run ~config ctx in
  Alcotest.(check bool) "budget-cut selection computes the source's values"
    true
    (sim_matches_eval r0.Dse.Search.selected)

let () =
  Alcotest.run "joint"
    [
      ( "persist",
        [
          Alcotest.test_case "config strings pairwise distinct" `Quick
            test_config_string_distinct;
          Alcotest.test_case "option flip invalidates the store" `Quick
            test_persist_invalidation;
          Alcotest.test_case "warm replay of joint configs" `Quick
            test_warm_replay_configs;
        ] );
      ( "legality",
        [
          test_prune_soundness;
          test_redundant_agrees;
          Alcotest.test_case "recurrence jam hazard witness" `Quick
            test_hazard_witness;
          Alcotest.test_case "unknown tile index raises" `Quick
            test_unknown_tile_raises;
        ] );
      ( "bounds",
        [
          test_admissible;
          Alcotest.test_case "best-first matches exhaustive" `Quick
            test_best_first_matches_exhaustive;
        ] );
      ( "configs",
        [
          Alcotest.test_case "normalization" `Quick test_normalize;
          Alcotest.test_case "tiled jam fallback folds outer factors" `Quick
            test_normalize_tiled_fallback;
          Alcotest.test_case "canonical keys name distinct built designs"
            `Quick test_normalize_exact;
          Alcotest.test_case "vector API agrees with base config" `Quick
            test_vector_config_agree;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "joint dominates unroll-only" `Quick
            test_joint_dominates;
          Alcotest.test_case "recurrence: unroll sweep selects legally" `Quick
            test_recurrence_sweep;
          Alcotest.test_case "recurrence: search selects legally" `Quick
            test_recurrence_search;
        ] );
    ]
