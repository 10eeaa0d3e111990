(** Transformation tests. Every pass is checked two ways: structurally
    (the paper's FIR example transforms into the Figure 1(c)/(d) shape)
    and semantically (random kernels, random unroll vectors, interpreter
    equality before and after — the strongest invariant in the system). *)

open Ir
module B = Builder
module P = Transform.Pipeline

let fir () = Option.get (Kernels.find "fir")
let mm () = Option.get (Kernels.find "mm")
let jac () = Option.get (Kernels.find "jac")

let apply ?(opts = P.default) vector k =
  P.apply { opts with P.vector } k

(* ------------------------------------------------------------------ *)
(* Simplify *)

let test_simplify_folds () =
  let e = B.((B.int 2 + B.int 3) * var "x" + B.int 0) in
  Alcotest.(check string) "constant folding" "5 * x"
    (Pretty.expr_to_string (Transform.Simplify.fold_expr e));
  Alcotest.(check string) "mul by zero" "0"
    (Pretty.expr_to_string (Transform.Simplify.fold_expr B.(var "x" * B.int 0)));
  Alcotest.(check string) "reassociation" "x + 5"
    (Pretty.expr_to_string
       (Transform.Simplify.fold_expr B.((var "x" + B.int 2) + B.int 3)))

let test_simplify_kills_dead_branches () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 2 ] ]
      [
        B.if_ (B.int 1) [ B.store1 "a" (B.int 0) (B.int 5) ];
        B.if_ (B.int 0) [ B.store1 "a" (B.int 1) (B.int 7) ];
      ]
  in
  let k' = Transform.Simplify.run k in
  Alcotest.(check int) "one statement remains" 1 (List.length k'.Ast.k_body)

let test_simplify_inlines_trip1 () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 4 ] ]
      [ B.loop "i" 2 3 [ B.store1 "a" (B.var "i") (B.int 1) ] ]
  in
  let k' = Transform.Simplify.run k in
  match k'.Ast.k_body with
  | [ Ast.Assign (Ast.Larr ("a", [ Ast.Int 2 ]), _) ] -> ()
  | _ -> Alcotest.failf "expected inlined body, got %s" (Pretty.kernel_to_string k')

let test_fold_ranges () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 8 ] ]
      [
        B.loop "i" 2 8
          [
            B.if_ B.(var "i" < B.int 2) [ B.store1 "a" (B.int 0) (B.int 1) ];
            B.if_ B.(var "i" >= B.int 2) [ B.store1 "a" (B.var "i") (B.int 2) ];
          ];
      ]
  in
  let k' = Transform.Simplify.fold_ranges k in
  match k'.Ast.k_body with
  | [ Ast.For l ] -> (
      match l.body with
      | [ Ast.Assign _ ] -> () (* dead guard gone, live guard dissolved *)
      | _ -> Alcotest.failf "unexpected result %s" (Pretty.kernel_to_string k'))
  | _ -> Alcotest.fail "expected one loop"

(* ------------------------------------------------------------------ *)
(* Unroll-and-jam *)

let test_unroll_structure () =
  let k = fir () in
  let k' = Transform.Unroll.run [ ("j", 2); ("i", 2) ] k in
  match Loop_nest.perfect_nest k'.Ast.k_body with
  | [ lj; li ], body ->
      Alcotest.(check int) "j step" 2 lj.Ast.step;
      Alcotest.(check int) "i step" 2 li.Ast.step;
      Alcotest.(check int) "jammed body has 4 statements" 4 (List.length body)
  | _ -> Alcotest.fail "expected a 2-deep perfect nest"

let test_unroll_epilogue () =
  (* 10 iterations unrolled by 3: main loop of 9 plus an epilogue. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 10 ] ]
      [ B.for_ "i" 0 10 (fun i -> [ B.store1 "a" i i ]) ]
  in
  let k' = Transform.Unroll.run [ ("i", 3) ] k in
  (match k'.Ast.k_body with
  | Ast.For main :: rest ->
      Alcotest.(check int) "main covers 9" 9 main.hi;
      Alcotest.(check int) "main step" 3 main.step;
      Alcotest.(check bool) "epilogue exists" true (rest <> [])
  | _ -> Alcotest.failf "unexpected shape: %s" (Pretty.kernel_to_string k'));
  Helpers.check_equiv ~reference:k k' "epilogue semantics"

let test_unroll_full () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 4 ] ]
      [ B.for_ "i" 0 4 (fun i -> [ B.store1 "a" i i ]) ]
  in
  let k' = Transform.Unroll.run [ ("i", 4) ] k in
  Alcotest.(check int) "loop fully dissolved" 4 (List.length k'.Ast.k_body);
  Helpers.check_equiv ~reference:k k' "full unroll semantics"

let test_unroll_clamp () =
  let v =
    Transform.Unroll.clamp ~divisors_only:true (fir ()).Ast.k_body
      [ ("j", 100); ("i", 5) ]
  in
  Alcotest.(check (option int)) "j clamped to trip" (Some 64) (List.assoc_opt "j" v);
  Alcotest.(check (option int)) "i rounded to divisor" (Some 4) (List.assoc_opt "i" v)

let test_jam_legal () =
  Alcotest.(check bool) "FIR jam legal" true (Transform.Unroll.jam_legal (fir ()));
  Alcotest.(check bool) "MM jam legal" true (Transform.Unroll.jam_legal (mm ()))

(* b[i][j] = b[i-1][j+1]: distance (1, -1), so jamming i is illegal. *)
let skewed () =
  B.kernel "skewed" ~arrays:[ Ast.array_decl "b" [ 9; 9 ] ]
    [
      B.loop "i" 1 9
        [
          B.loop "j" 0 8
            [
              B.store2 "b" (B.var "i") (B.var "j")
                B.(arr2 "b" (var "i" - B.int 1) (var "j" + B.int 1));
            ];
        ];
    ]

(* [Unroll.effective] remembers the last legality verdict per domain,
   keyed on the kernel's physical identity. Interleaving a legal and an
   illegal kernel, on the same and on fresh values and on another
   domain, must always agree with a direct [jam_legal] run. *)
let test_jam_legal_memo () =
  let legal = fir () and illegal = skewed () in
  Alcotest.(check bool) "skewed jam illegal" false
    (Transform.Unroll.jam_legal illegal);
  let fresh (k : Ast.kernel) = { k with Ast.k_name = k.Ast.k_name } in
  let check label (k : Ast.kernel) =
    let indices = Loop_nest.spine_indices k.Ast.k_body in
    let v = List.map (fun i -> (i, 2)) indices in
    let direct = Transform.Unroll.jam_legal k in
    let expected =
      if direct then v else [ (List.nth indices (List.length indices - 1), 2) ]
    in
    Alcotest.(check (list (pair string int)))
      (label ^ ": effective vector") expected
      (Transform.Unroll.effective k v);
    let outer_step =
      match (Transform.Unroll.run v k).Ast.k_body with
      | Ast.For l :: _ -> l.Ast.step
      | _ -> 0
    in
    Alcotest.(check int) (label ^ ": outer loop jammed") (if direct then 2 else 1)
      outer_step
  in
  let legal' = fresh legal and illegal' = fresh illegal in
  List.iter
    (fun (label, k) -> check label k)
    [
      ("fir", legal); ("skewed", illegal); ("fir again", legal);
      ("fresh fir", legal'); ("skewed again", illegal);
      ("fresh skewed", illegal'); ("fresh fir again", legal');
      ("fir after fresh", legal); ("skewed after fresh", illegal);
    ];
  Domain.join
    (Domain.spawn (fun () ->
         check "skewed on another domain" illegal;
         check "fir on another domain" legal));
  check "skewed back on this domain" illegal

(* ------------------------------------------------------------------ *)
(* Peeling *)

let test_peel_first () =
  let k = fir () in
  let body = Transform.Peel.peel_first ~index:"j" k.Ast.k_body in
  let loops =
    Ast.fold_stmts
      ~stmt:(fun acc s ->
        match s with Ast.For l when l.index = "j" -> l :: acc | _ -> acc)
      ~expr:(fun acc _ -> acc)
      [] body
  in
  Alcotest.(check int) "one j loop left" 1 (List.length loops);
  Alcotest.(check int) "starts at 1" 1 (List.hd loops).Ast.lo;
  Helpers.check_equiv
    ~inputs:(Kernels.test_inputs k)
    ~reference:k
    { k with Ast.k_body = body }
    "peel semantics"

let test_peel_last () =
  let k = fir () in
  let body = Transform.Peel.peel_last ~index:"i" k.Ast.k_body in
  Helpers.check_equiv ~inputs:(Kernels.test_inputs k) ~reference:k
    { k with Ast.k_body = body } "peel last semantics"

let test_peel_kills_guard () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 4 ] ]
      [
        B.for_ "i" 0 4 (fun i ->
            [
              B.if_ B.(i == B.int 0) [ B.store1 "a" (B.int 0) (B.int 9) ];
              B.store1 "a" i i;
            ]);
      ]
  in
  let body = Transform.Peel.peel_first ~index:"i" k.Ast.k_body in
  let k' = Transform.Simplify.run { k with Ast.k_body = body } in
  let has_if =
    Ast.fold_stmts
      ~stmt:(fun acc s -> acc || match s with Ast.If _ -> true | _ -> false)
      ~expr:(fun acc _ -> acc)
      false k'.Ast.k_body
  in
  Alcotest.(check bool) "guard specialised away" false has_if;
  Helpers.check_equiv ~reference:k k' "guard peel semantics"

(* ------------------------------------------------------------------ *)
(* LICM *)

let test_licm_hoists () =
  let k =
    B.kernel "t"
      ~arrays:[ Ast.array_decl "a" [ 8 ]; Ast.array_decl "b" [ 8 ] ]
      ~scalars:[ Ast.scalar_decl "x" ]
      [
        B.for_ "i" 0 8 (fun i ->
            [ B.store1 "a" i B.((var "x" * var "x") + arr1 "b" i) ]);
      ]
  in
  let k' = Transform.Licm.run k in
  (match k'.Ast.k_body with
  | [ Ast.Assign (Ast.Lvar _, _); Ast.For _ ] -> ()
  | _ -> Alcotest.failf "x*x not hoisted: %s" (Pretty.kernel_to_string k'));
  Helpers.check_equiv ~reference:k k' "licm semantics"

let test_licm_respects_writes () =
  (* b[0] is written in the loop: reads of b must not be hoisted. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 8 ]; Ast.array_decl "b" [ 8 ] ]
      [
        B.for_ "i" 0 8 (fun i ->
            [
              B.store1 "b" (B.int 0) i;
              B.store1 "a" i B.(arr1 "b" (B.int 0) + arr1 "b" (B.int 1));
            ]);
      ]
  in
  let k' = Transform.Licm.run k in
  (match k'.Ast.k_body with
  | [ Ast.For _ ] -> ()
  | _ -> Alcotest.failf "unsafe hoist: %s" (Pretty.kernel_to_string k'));
  Helpers.check_equiv ~reference:k k' "licm write safety"

(* ------------------------------------------------------------------ *)
(* Scalar replacement: FIR turns into the Figure 1(c)/(d) shape *)

let count_accesses body =
  let accesses = Analysis.Access.collect body in
  ( List.length (Analysis.Access.reads accesses),
    List.length (Analysis.Access.writes accesses) )

let test_fir_2x2_shape () =
  let r = apply [ ("j", 2); ("i", 2) ] (fir ()) in
  let rep = r.P.report in
  Alcotest.(check int) "two accumulators hoisted" 2
    rep.Transform.Scalar_replace.hoisted_members;
  Alcotest.(check int) "two C banks" 2 (List.length rep.banks);
  Alcotest.(check bool) "bank size 16" true
    (List.for_all (fun (_, n) -> n = 16) rep.banks);
  Alcotest.(check int) "one CSE load (S_0)" 1 rep.cse_loads;
  Alcotest.(check (list string)) "carrier peeled" [ "j" ] rep.carriers;
  (* steady state: main j loop's inner body has exactly 3 S reads *)
  let main_loop =
    List.rev r.P.kernel.Ast.k_body
    |> List.find_map (function Ast.For l -> Some l | _ -> None)
  in
  match main_loop with
  | Some lj ->
      let inner =
        List.find_map (function Ast.For l -> Some l | _ -> None) lj.Ast.body
      in
      let reads, writes = count_accesses (Option.get inner).Ast.body in
      Alcotest.(check int) "3 loads in steady state" 3 reads;
      Alcotest.(check int) "0 stores in steady state" 0 writes
  | None -> Alcotest.fail "no main loop"

let test_mm_inner_clean () =
  (* After banking A and B and hoisting C, MM's innermost main loop body
     has no memory accesses at all — the paper's premise for exploring
     only the two outer loops. *)
  let r = apply [] (mm ()) in
  (* follow the *last* loop at each level: peeled copies come first *)
  let rec innermost body =
    match
      List.rev body |> List.find_map (function Ast.For l -> Some l | _ -> None)
    with
    | Some l -> innermost l.Ast.body
    | None -> body
  in
  let main =
    List.rev r.P.kernel.Ast.k_body
    |> List.find_map (function Ast.For l -> Some l | _ -> None)
  in
  let reads, writes = count_accesses (innermost (Option.get main).Ast.body) in
  Alcotest.(check (pair int int)) "no memory ops in innermost body" (0, 0)
    (reads, writes)

let test_jac_chains () =
  let r = apply [] (jac ()) in
  let rep = r.P.report in
  Alcotest.(check bool) "a chain for the row reuse" true
    (List.exists
       (fun (a, _) -> a = "A")
       rep.Transform.Scalar_replace.chain_lengths);
  Alcotest.(check bool) "chain spans 3 registers" true
    (List.for_all (fun (_, n) -> n = 3) rep.chain_lengths)

let test_register_budget () =
  let opts =
    {
      P.default with
      P.scalar =
        { Transform.Scalar_replace.default_config with max_registers = 8 };
    }
  in
  let r = apply ~opts [] (fir ()) in
  Alcotest.(check bool) "budget respected" true
    (r.P.report.Transform.Scalar_replace.registers <= 8);
  Helpers.check_equiv
    ~inputs:(Kernels.test_inputs (fir ()))
    ~reference:(fir ()) r.P.kernel "budget-limited semantics"

(* ------------------------------------------------------------------ *)
(* Tiling *)

let test_strip_mine () =
  let k = fir () in
  let names = Transform.Names.of_kernel k in
  let body, tile_idx =
    Transform.Tiling.strip_mine ~index:"i" ~tile:8 names k.Ast.k_body
  in
  Alcotest.(check bool) "tile loop created" true (tile_idx <> None);
  Alcotest.(check int) "nest now 3 deep" 3 (Loop_nest.nest_depth body);
  Helpers.check_equiv ~inputs:(Kernels.test_inputs k) ~reference:k
    { k with Ast.k_body = body } "strip-mine semantics"

let test_interchange () =
  let k = jac () in
  match Transform.Tiling.interchange ~outer:"i" k with
  | None -> Alcotest.fail "JAC loops are permutable"
  | Some k' ->
      Alcotest.(check (list string)) "order swapped" [ "j"; "i" ]
        (Loop_nest.spine_indices k'.Ast.k_body);
      Helpers.check_equiv ~inputs:(Kernels.test_inputs k) ~reference:k k'
        "interchange semantics"

let test_interchange_illegal () =
  (* b[i][j] = b[i-1][j+1]: distance (1, -1); interchange must refuse. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "b" [ 8; 8 ] ]
      [
        B.loop "i" 1 8
          [
            B.loop "j" 0 7
              [
                B.store2 "b" (B.var "i") (B.var "j")
                  B.(arr2 "b" (var "i" - B.int 1) (var "j" + B.int 1));
              ];
          ];
      ]
  in
  Alcotest.(check bool) "refused" true
    (Transform.Tiling.interchange ~outer:"i" k = None)

let test_tile_for_registers () =
  let k = fir () in
  let k' = Transform.Tiling.tile_for_registers ~index:"i" ~tile:8 k in
  Helpers.check_equiv ~inputs:(Kernels.test_inputs k) ~reference:k k'
    "tiling semantics";
  let _, rep = Transform.Scalar_replace.run k' in
  Alcotest.(check bool) "banks at most 8 wide" true
    (List.for_all (fun (_, n) -> n <= 8) rep.Transform.Scalar_replace.banks)

(* ------------------------------------------------------------------ *)
(* Property tests: the full pipeline preserves semantics *)

let prop_pipeline_preserves_semantics =
  Helpers.qtest "pipeline preserves semantics (random kernels)" ~count:120
    QCheck2.Gen.(
      Helpers.gen_kernel >>= fun k ->
      Helpers.gen_vector_for k >>= fun v -> return (k, v))
    (fun (k, v) ->
      let r = apply v k in
      Helpers.equivalent ~inputs:(Helpers.inputs_for k) ~reference:k r.P.kernel)

let prop_unroll_preserves_semantics =
  Helpers.qtest "unroll-and-jam alone preserves semantics" ~count:120
    QCheck2.Gen.(
      Helpers.gen_kernel >>= fun k ->
      Helpers.gen_vector_for k >>= fun v -> return (k, v))
    (fun (k, v) ->
      let k' = Transform.Unroll.run v k in
      Helpers.equivalent ~inputs:(Helpers.inputs_for k) ~reference:k k')

let test_paper_kernels_all_divisor_vectors () =
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let spine = Loop_nest.spine k.Ast.k_body in
      List.iter
        (fun (uo, ui) ->
          match spine with
          | a :: b :: _ ->
              let v = [ (a.Ast.index, uo); (b.Ast.index, ui) ] in
              let r = apply v k in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s" name (Helpers.vector_to_string v))
                true
                (Helpers.equivalent
                   ~inputs:(Kernels.test_inputs k)
                   ~reference:k r.P.kernel)
          | _ -> ())
        [ (2, 2); (2, 4); (4, 2); (1, 8); (8, 1); (3, 3); (2, 8) ])
    Kernels.names

let () =
  Alcotest.run "transform"
    [
      ( "simplify",
        [
          Alcotest.test_case "folding" `Quick test_simplify_folds;
          Alcotest.test_case "dead branches" `Quick test_simplify_kills_dead_branches;
          Alcotest.test_case "trip-1 inlining" `Quick test_simplify_inlines_trip1;
          Alcotest.test_case "range folding" `Quick test_fold_ranges;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "structure" `Quick test_unroll_structure;
          Alcotest.test_case "epilogue" `Quick test_unroll_epilogue;
          Alcotest.test_case "full unroll" `Quick test_unroll_full;
          Alcotest.test_case "clamping" `Quick test_unroll_clamp;
          Alcotest.test_case "jam legality" `Quick test_jam_legal;
          Alcotest.test_case "jam legality memo" `Quick test_jam_legal_memo;
          prop_unroll_preserves_semantics;
        ] );
      ( "peel",
        [
          Alcotest.test_case "first" `Quick test_peel_first;
          Alcotest.test_case "last" `Quick test_peel_last;
          Alcotest.test_case "guard specialisation" `Quick test_peel_kills_guard;
        ] );
      ( "licm",
        [
          Alcotest.test_case "hoists invariants" `Quick test_licm_hoists;
          Alcotest.test_case "write safety" `Quick test_licm_respects_writes;
        ] );
      ( "scalar-replacement",
        [
          Alcotest.test_case "FIR figure-1 shape" `Quick test_fir_2x2_shape;
          Alcotest.test_case "MM clean innermost" `Quick test_mm_inner_clean;
          Alcotest.test_case "JAC chains" `Quick test_jac_chains;
          Alcotest.test_case "register budget" `Quick test_register_budget;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "strip-mine" `Quick test_strip_mine;
          Alcotest.test_case "interchange" `Quick test_interchange;
          Alcotest.test_case "interchange legality" `Quick test_interchange_illegal;
          Alcotest.test_case "tile for registers" `Quick test_tile_for_registers;
        ] );
      ( "pipeline",
        [
          prop_pipeline_preserves_semantics;
          Alcotest.test_case "paper kernels x divisor vectors" `Slow
            test_paper_kernels_all_divisor_vectors;
        ] );
    ]
