(** The layered evaluation engine: persistent store round-trips (warm
    estimates field-for-field equal to cold, zero syntheses), cache-key
    invalidation, corruption tolerance, backend-composition equivalence
    (the tier-1 gate never changes a selection), multi-kernel sessions
    selecting identically to sequential runs, parallel sweep stats, and
    the end-to-end cold/warm CLI acceptance run over the paper's five
    kernels. *)

module Design = Dse.Design
module Search = Dse.Search
module Space = Dse.Space
module Store = Engine.Store
module Backend = Engine.Backend
module Persist = Engine.Persist

let profile = Hls.Estimate.default_profile ()

let fresh_dir () =
  let f = Filename.temp_file "defacto-test-store" "" in
  Sys.remove f;
  f

let rm_store dir = ignore (Persist.clear ~cache_dir:dir)

let config ?(backend = Backend.default) ?(profile = profile) () =
  Persist.config_string ~backend:backend.Backend.name profile
    Transform.Pipeline.default

let kernel name = Option.get (Kernels.find name)

(* ------------------------------------------------------------------ *)
(* Store fork/absorb and persistence round-trip *)

let save_all dir cfg (k : Ir.Ast.kernel) (store : Store.t) =
  Persist.save_points ~cache_dir:dir ~config:cfg
    ~kernel_key:(Persist.kernel_key k) store;
  Persist.save_memo ~cache_dir:dir ~config:cfg store.Store.sched_memo

let load_all dir cfg (k : Ir.Ast.kernel) (store : Store.t) =
  let n =
    Persist.load_points ~cache_dir:dir ~config:cfg
      ~kernel_key:(Persist.kernel_key k) store
  in
  ignore (Persist.load_memo ~cache_dir:dir ~config:cfg store.Store.sched_memo);
  n

(* Cold sweep, persist, reload into a fresh store, warm sweep: zero
   syntheses and bit-identical points (estimates field-for-field equal —
   Marshal round-trips floats exactly). *)
let roundtrip_prop (k : Ir.Ast.kernel) =
  let dir = fresh_dir () in
  let cfg = config () in
  let cold_ctx = Design.context ~profile k in
  let cold = Space.sweep ~max_product:8 ~jobs:1 cold_ctx in
  save_all dir cfg k cold_ctx.Design.store;
  let warm_store = Store.create () in
  let loaded = load_all dir cfg k warm_store in
  let warm_ctx = Design.context ~profile ~store:warm_store k in
  let warm = Space.sweep ~max_product:8 ~jobs:1 warm_ctx in
  rm_store dir;
  if loaded <> Store.size cold_ctx.Design.store then
    QCheck2.Test.fail_reportf "loaded %d of %d points" loaded
      (Store.size cold_ctx.Design.store);
  if warm_ctx.Design.stats.Design.evaluations <> 0 then
    QCheck2.Test.fail_reportf "warm sweep synthesized %d designs"
      warm_ctx.Design.stats.Design.evaluations;
  if warm.Space.points <> cold.Space.points then
    QCheck2.Test.fail_reportf "warm points differ from cold";
  true

let test_roundtrip_random =
  Helpers.qtest "persistent store round-trip (random kernels)" ~count:15
    Helpers.gen_kernel roundtrip_prop

let test_roundtrip_fir () =
  Alcotest.(check bool) "fir round-trip" true (roundtrip_prop (kernel "fir"))

(* A store written under one configuration is never read under another. *)
let test_invalidation () =
  let k = kernel "fir" in
  let dir = fresh_dir () in
  let cfg = config () in
  let ctx = Design.context ~profile k in
  ignore (Space.sweep ~max_product:8 ~jobs:1 ctx);
  save_all dir cfg k ctx.Design.store;
  let other_profile =
    {
      profile with
      Hls.Estimate.device =
        { profile.Hls.Estimate.device with Hls.Device.num_memories = 2 };
    }
  in
  let other_cfg = config ~profile:other_profile () in
  Alcotest.(check bool) "configs differ" true (cfg <> other_cfg);
  let s = Store.create () in
  Alcotest.(check int) "other device loads nothing" 0 (load_all dir other_cfg k s);
  let s2 = Store.create () in
  Alcotest.(check bool) "same config loads" true (load_all dir cfg k s2 > 0);
  (* A backend is part of the key too: lowlevel never sees full's points. *)
  let ll_cfg = config ~backend:Backend.lowlevel () in
  let s3 = Store.create () in
  Alcotest.(check int) "other backend loads nothing" 0 (load_all dir ll_cfg k s3);
  rm_store dir

(* Corrupt or truncated files read as cold, never as an error, and a
   clear keeps files it does not recognize. *)
let test_corruption_and_clear () =
  let k = kernel "fir" in
  let dir = fresh_dir () in
  let cfg = config () in
  let ctx = Design.context ~profile k in
  ignore (Design.evaluate ctx [ ("j", 2) ]);
  save_all dir cfg k ctx.Design.store;
  (* Truncate the points file to a prefix. *)
  let cfg_dir =
    Filename.concat (Filename.concat dir "v1")
      (Digest.to_hex (Digest.string cfg))
  in
  let points_file =
    Filename.concat cfg_dir ("points-" ^ Persist.kernel_key k ^ ".bin")
  in
  let data = In_channel.with_open_bin points_file In_channel.input_all in
  Out_channel.with_open_bin points_file (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (String.length data / 3)));
  let s = Store.create () in
  Alcotest.(check int) "truncated file loads nothing" 0 (load_all dir cfg k s);
  (* Overwrite with garbage. *)
  Out_channel.with_open_bin points_file (fun oc ->
      Out_channel.output_string oc "not a marshalled store at all");
  let s2 = Store.create () in
  Alcotest.(check int) "garbage file loads nothing" 0 (load_all dir cfg k s2);
  (* Saving over the corrupt file heals it. *)
  save_all dir cfg k ctx.Design.store;
  let s3 = Store.create () in
  Alcotest.(check bool) "healed after re-save" true (load_all dir cfg k s3 > 0);
  (* clear keeps foreign files. *)
  let foreign = Filename.concat cfg_dir "not-ours.txt" in
  Out_channel.with_open_text foreign (fun oc ->
      Out_channel.output_string oc "keep me\n");
  let removed, kept = Persist.clear ~cache_dir:dir in
  Alcotest.(check bool) "removed our files" true (removed >= 2);
  Alcotest.(check bool) "kept the foreign file" true (kept >= 1);
  Alcotest.(check bool) "foreign file survives" true (Sys.file_exists foreign);
  Sys.remove foreign;
  (try Unix.rmdir cfg_dir with Unix.Unix_error _ -> ());
  (try Unix.rmdir (Filename.concat dir "v1") with Unix.Unix_error _ -> ())

(* Merge-on-save: two stores written one after the other under the same
   configuration end up united on disk. *)
let test_merge_on_save () =
  let k = kernel "mm" in
  let dir = fresh_dir () in
  let cfg = config () in
  let ctx1 = Design.context ~profile k in
  ignore (Design.evaluate ctx1 [ ("i", 2) ]);
  save_all dir cfg k ctx1.Design.store;
  let ctx2 = Design.context ~profile k in
  ignore (Design.evaluate ctx2 [ ("i", 4) ]);
  save_all dir cfg k ctx2.Design.store;
  let s = Store.create () in
  let loaded = load_all dir cfg k s in
  rm_store dir;
  Alcotest.(check int) "both runs' points on disk" 2 loaded

(* ------------------------------------------------------------------ *)
(* Backend composition *)

(* The tier-1 gate is admissible: with and without it, the search
   selects the same design, and the pruned two-tier sweep agrees with
   the exhaustive one on both selection criteria. *)
let test_backend_equivalence () =
  List.iter
    (fun name ->
      let k = kernel name in
      let gated = Design.context ~profile ~backend:Backend.default k in
      let plain = Design.context ~profile ~backend:Backend.full k in
      let rg = Search.run gated and rp = Search.run plain in
      Alcotest.(check bool)
        (name ^ ": gated and ungated searches select identically")
        true
        (Design.vector_equal rg.Search.selected.Design.vector
           rp.Search.selected.Design.vector);
      let swg = Space.sweep ~max_product:16 ~prune:true ~jobs:1 gated in
      let swp = Space.sweep ~max_product:16 ~jobs:1 plain in
      let vec o =
        Option.map
          (fun (sp : Space.sweep_point) -> sp.Space.config.Design.vector)
          o
      in
      Alcotest.(check bool)
        (name ^ ": best fitting unchanged by the gate")
        true
        (vec (Space.best_fitting gated swg) = vec (Space.best_fitting plain swp));
      Alcotest.(check bool)
        (name ^ ": smallest comparable unchanged by the gate")
        true
        (vec (Space.smallest_comparable gated swg)
        = vec (Space.smallest_comparable plain swp));
      Alcotest.(check bool)
        (name ^ ": the gate only removes syntheses")
        true
        (gated.Design.stats.Design.evaluations
         <= plain.Design.stats.Design.evaluations))
    [ "fir"; "mm"; "jac" ]

(* The lowlevel backend degrades area and wall time, never cycles. *)
let test_lowlevel_backend () =
  let k = kernel "fir" in
  let full_ctx = Design.context ~profile ~backend:Backend.full k in
  let ll_ctx = Design.context ~profile ~backend:Backend.lowlevel k in
  let v = [ ("j", 4) ] in
  let pf = Design.evaluate full_ctx v and pl = Design.evaluate ll_ctx v in
  Alcotest.(check int) "cycles unchanged by P&R" (Design.cycles pf) (Design.cycles pl);
  Alcotest.(check bool) "post-route area grows" true (Design.space pl >= Design.space pf);
  Alcotest.(check bool)
    "post-route time grows" true
    (pl.Design.estimate.Hls.Estimate.time_ns
     >= pf.Design.estimate.Hls.Estimate.time_ns)

let test_backend_names () =
  List.iter
    (fun name ->
      match Backend.of_string name with
      | Ok b -> Alcotest.(check string) name name (Backend.to_string b)
      | Error e -> Alcotest.fail e)
    Backend.known_names;
  Alcotest.(check bool)
    "unknown backend rejected" true
    (Result.is_error (Backend.of_string "bogus"))

(* ------------------------------------------------------------------ *)
(* Multi-kernel sessions *)

let tasks names =
  List.map (fun n -> { Engine.name = n; kernel = kernel n }) names

(* One batched session selects exactly what sequential per-kernel
   searches select, kernel for kernel. *)
let test_session_matches_sequential () =
  let names = [ "fir"; "mm"; "jac"; "pat"; "sobel" ] in
  let summary = Dse.Driver.run_many ~profile (tasks names) in
  List.iter2
    (fun name (o : Dse.Driver.outcome) ->
      let solo = Search.run (Design.context ~profile (kernel name)) in
      Alcotest.(check bool)
        (name ^ ": session selects like a sequential run")
        true
        (Design.vector_equal o.Dse.Driver.search.Search.selected.Design.vector
           solo.Search.selected.Design.vector))
    names summary.Dse.Driver.outcomes

(* Warm session over a persistent store: zero syntheses, identical
   selections, and the store reports what it loaded. *)
let test_session_warm () =
  let names = [ "fir"; "mm" ] in
  let dir = fresh_dir () in
  let cold = Dse.Driver.run_many ~cache_dir:dir ~profile (tasks names) in
  let warm = Dse.Driver.run_many ~cache_dir:dir ~profile (tasks names) in
  rm_store dir;
  Alcotest.(check bool)
    "cold session synthesized" true
    (cold.Dse.Driver.total.Design.evaluations > 0);
  Alcotest.(check int)
    "warm session synthesized nothing" 0
    warm.Dse.Driver.total.Design.evaluations;
  Alcotest.(check bool)
    "warm session loaded the memo" true
    (warm.Dse.Driver.loaded_memo_shapes > 0);
  List.iter2
    (fun (c : Dse.Driver.outcome) (w : Dse.Driver.outcome) ->
      Alcotest.(check bool)
        (c.Dse.Driver.task.Engine.name ^ ": warm selection identical")
        true
        (c.Dse.Driver.search.Search.selected
        = w.Dse.Driver.search.Search.selected);
      Alcotest.(check bool)
        (c.Dse.Driver.task.Engine.name ^ ": warm loaded points")
        true
        (w.Dse.Driver.loaded_points > 0))
    cold.Dse.Driver.outcomes warm.Dse.Driver.outcomes

(* The shared schedule memo carries across the kernels of a session:
   later kernels hit tri-schedules the earlier ones created. *)
let test_session_shares_memo () =
  (* fir twice under two names: the second must be served from the
     memo the first filled. *)
  let ts =
    [
      { Engine.name = "a"; kernel = kernel "fir" };
      { Engine.name = "b"; kernel = kernel "fir" };
    ]
  in
  let summary = Dse.Driver.run_many ~profile ts in
  match summary.Dse.Driver.outcomes with
  | [ first; second ] ->
      Alcotest.(check bool)
        "second kernel hits the shared memo" true
        (second.Dse.Driver.stats.Design.sched_memo_hits
         > first.Dse.Driver.stats.Design.sched_memo_hits)
  | _ -> Alcotest.fail "expected two outcomes"

(* ------------------------------------------------------------------ *)
(* Parallel sweeps: stats determinism *)

let test_sweep_stats_deterministic () =
  let k = kernel "mm" in
  let run jobs =
    let ctx = Design.context ~profile k in
    let sp = Space.sweep ~max_product:16 ~jobs ctx in
    (sp, Design.stats_snapshot ctx)
  in
  let sp1, st1 = run 1 and sp4, st4 = run 4 in
  Alcotest.(check bool) "points identical across jobs" true
    (sp1.Space.points = sp4.Space.points);
  Alcotest.(check int)
    "evaluations = lattice size (jobs=1)"
    (List.length sp1.Space.points)
    st1.Design.evaluations;
  Alcotest.(check int)
    "evaluations = lattice size (jobs=4)"
    (List.length sp4.Space.points)
    st4.Design.evaluations;
  Alcotest.(check int) "cache hits agree" st1.Design.cache_hits st4.Design.cache_hits

(* ------------------------------------------------------------------ *)
(* End-to-end CLI acceptance: cold vs warm over the paper's kernels *)

let build_path p = Filename.concat (Filename.dirname Sys.executable_name) p

let run_defacto args out =
  Sys.command
    (Filename.quote_command
       (build_path "../bin/defacto.exe")
       ~stdout:out ~stderr:Filename.null args)

let lines_of file = In_channel.with_open_text file In_channel.input_all
let grep_lines pre text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.starts_with ~prefix:pre l)

(* A second [defacto explore] over the paper's five kernels with
   --cache-dir performs zero full syntheses and reports selections
   bit-identical to the cold run. *)
let test_cli_cold_warm () =
  let dir = fresh_dir () in
  let args =
    [ "explore"; "-k"; "fir"; "-k"; "mm"; "-k"; "pat"; "-k"; "jac"; "-k";
      "sobel"; "--cache-dir"; dir ]
  in
  let out_cold = Filename.temp_file "defacto-cold" ".out" in
  let out_warm = Filename.temp_file "defacto-warm" ".out" in
  Alcotest.(check int) "cold run exits 0" 0 (run_defacto args out_cold);
  Alcotest.(check int) "warm run exits 0" 0 (run_defacto args out_warm);
  let cold = lines_of out_cold and warm = lines_of out_warm in
  Sys.remove out_cold;
  Sys.remove out_warm;
  rm_store dir;
  let selections t = grep_lines "selected:" t in
  Alcotest.(check int) "five selections" 5 (List.length (selections cold));
  Alcotest.(check (list string))
    "selections bit-identical cold vs warm" (selections cold) (selections warm);
  (match grep_lines "session:" warm with
  | warm_session :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "warm session is all cache (%s)" warm_session)
        true
        (String.starts_with ~prefix:"session: 0 synthesized" warm_session)
  | [] -> Alcotest.fail "no session line in warm output");
  match grep_lines "session:" cold with
  | cold_session :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "cold session synthesized (%s)" cold_session)
        false
        (String.starts_with ~prefix:"session: 0 synthesized" cold_session)
  | [] -> Alcotest.fail "no session line in cold output"

let test_cli_cache_subcommand () =
  let dir = fresh_dir () in
  let out = Filename.temp_file "defacto-cache" ".out" in
  Alcotest.(check int)
    "explore with store exits 0" 0
    (run_defacto [ "explore"; "-k"; "fir"; "--cache-dir"; dir ] out);
  Alcotest.(check int)
    "cache stats exits 0" 0
    (run_defacto [ "cache"; "stats"; "--cache-dir"; dir ] out);
  let stats_out = lines_of out in
  Alcotest.(check bool)
    "stats mentions a configuration" true
    (List.exists
       (fun l ->
         String.length l > 0
         && String.starts_with ~prefix:(dir ^ ": 1 configuration") l)
       (String.split_on_char '\n' stats_out));
  Alcotest.(check int)
    "cache clear exits 0" 0
    (run_defacto [ "cache"; "clear"; "--cache-dir"; dir ] out);
  Alcotest.(check int)
    "stats after clear exits 0" 0
    (run_defacto [ "cache"; "stats"; "--cache-dir"; dir ] out);
  Sys.remove out;
  Alcotest.(check bool)
    "store directory gone" false
    (Sys.file_exists (Filename.concat dir "v1"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "persist",
        [
          Alcotest.test_case "round-trip fir" `Quick test_roundtrip_fir;
          test_roundtrip_random;
          Alcotest.test_case "config invalidation" `Quick test_invalidation;
          Alcotest.test_case "corruption tolerance + clear" `Quick
            test_corruption_and_clear;
          Alcotest.test_case "merge on save" `Quick test_merge_on_save;
        ] );
      ( "backend",
        [
          Alcotest.test_case "tier-1 gate is selection-neutral" `Quick
            test_backend_equivalence;
          Alcotest.test_case "lowlevel degradation" `Quick test_lowlevel_backend;
          Alcotest.test_case "names round-trip" `Quick test_backend_names;
        ] );
      ( "session",
        [
          Alcotest.test_case "matches sequential searches" `Quick
            test_session_matches_sequential;
          Alcotest.test_case "warm run is all cache" `Quick test_session_warm;
          Alcotest.test_case "kernels share the schedule memo" `Quick
            test_session_shares_memo;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "sweep stats deterministic" `Quick
            test_sweep_stats_deterministic;
        ] );
      ( "cli",
        [
          Alcotest.test_case "cold vs warm acceptance" `Quick test_cli_cold_warm;
          Alcotest.test_case "cache subcommand" `Quick test_cli_cache_subcommand;
        ] );
    ]
