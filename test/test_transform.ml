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

(* Scalar replacement of the unrolled sweep-scale points, pinned to the
   values recorded before its cost was made linear in the body: any
   change to class membership, register order or naming fails here.
   [names] is the declared-register list (count, head, tail, and an MD5
   of the comma-joined list); [text] is the MD5 of the replaced kernel's
   printed form, so it also moves if the printer changes. *)
let stencil3d_src =
  {|
  short A[16][16][16];
  short B[16][16][16];
  for (i = 1; i < 15; i++)
    for (j = 1; j < 15; j++)
      for (k = 1; k < 15; k++)
        B[i][j][k] = (6*A[i][j][k] + A[i-1][j][k] + A[i+1][j][k]
          + A[i][j-1][k] + A[i][j+1][k] + A[i][j][k-1] + A[i][j][k+1]) / 16;
|}

type sr_pin = {
  registers : int;
  cse : int;
  chains : string * int;  (** number of chains, all of this (array, length) *)
  names : int * string list * string list * string;
  text : string;
}

let sr_pins =
  [
    ( "jac", [ ("i", 15); ("j", 30) ],
      { registers = 510; cse = 390; chains = ("A", 60);
        names = (510, [ "a_h0"; "a_h1"; "a_h0_0"; "a_h1_0" ],
                 [ "a_s_386"; "a_s_387"; "a_s_388" ],
                 "10c886e5e4a91edc34ceeb68c7bed5b0");
        text = "e2ccb8fcdb0dc7d0f4744ae381430e76" } );
    ( "jac", [ ("i", 30); ("j", 30) ],
      { registers = 900; cse = 900; chains = ("A", 0);
        names = (900, [ "a_s"; "a_s_0"; "a_s_1"; "a_s_2" ],
                 [ "a_s_896"; "a_s_897"; "a_s_898" ],
                 "28e118bb07677062cf4a0a5af4ef00e5");
        text = "611e100ec16899732e2a9148b9ead80a" } );
    ( "sobel", [ ("i", 15); ("j", 30) ],
      { registers = 544; cse = 416; chains = ("img", 64);
        names = (544, [ "img_h0"; "img_h1"; "img_h0_0"; "img_h1_0" ],
                 [ "img_s_412"; "img_s_413"; "img_s_414" ],
                 "9c3f2d593911379e91dc41c9b803e97b");
        text = "6b7fb16af0f0c05e3cd90b209d6665b4" } );
    ( "sobel", [ ("i", 30); ("j", 30) ],
      { registers = 1024; cse = 1024; chains = ("img", 0);
        names = (1024, [ "img_s"; "img_s_0"; "img_s_1"; "img_s_2" ],
                 [ "img_s_1020"; "img_s_1021"; "img_s_1022" ],
                 "47252df4f38187d7795475af57fe6a1b");
        text = "0b503c8f2a46a2c93275b45bd2123c1e" } );
    ( "stencil3d", [ ("i", 7); ("j", 7); ("k", 14) ],
      { registers = 882; cse = 490; chains = ("A", 196);
        names = (882, [ "a_h0"; "a_h1"; "a_h0_0"; "a_h1_0" ],
                 [ "a_s_486"; "a_s_487"; "a_s_488" ],
                 "e6913517d75f48a06736f2a4bc0e8206");
        text = "955404967a20c228949f8df00b39c35b" } );
  ]

let test_scalar_replace_pinned () =
  List.iter
    (fun (name, v, pin) ->
      let k =
        match Kernels.find name with
        | Some k -> k
        | None -> (
            match Frontend.Parser.kernel_of_string_res ~name stencil3d_src with
            | Ok k -> k
            | Error msg -> Alcotest.fail msg)
      in
      let what = Printf.sprintf "%s %s" name (Helpers.vector_to_string v) in
      let u = Transform.Unroll.run v k in
      let k', (rep : Transform.Scalar_replace.report) =
        Transform.Scalar_replace.run u
      in
      let declared =
        List.filteri
          (fun i _ -> i >= List.length u.Ast.k_scalars)
          (List.map (fun (s : Ast.scalar_decl) -> s.s_name) k'.Ast.k_scalars)
      in
      let n = List.length declared in
      let chain_array, n_chains = pin.chains in
      let count, head, tail, digest = pin.names in
      Alcotest.(check int) (what ^ " registers") pin.registers rep.registers;
      Alcotest.(check int) (what ^ " cse_loads") pin.cse rep.cse_loads;
      Alcotest.(check (list (pair string int)))
        (what ^ " chain_lengths")
        (List.init n_chains (fun _ -> (chain_array, 2)))
        rep.chain_lengths;
      Alcotest.(check int) (what ^ " declared count") count n;
      Alcotest.(check (list string)) (what ^ " declared head") head
        (List.filteri (fun i _ -> i < List.length head) declared);
      Alcotest.(check (list string)) (what ^ " declared tail") tail
        (List.filteri (fun i _ -> i >= n - List.length tail) declared);
      Alcotest.(check string) (what ^ " declared digest") digest
        (Digest.to_hex (Digest.string (String.concat "," declared)));
      Alcotest.(check string) (what ^ " kernel text digest") pin.text
        (Digest.to_hex (Digest.string (Pretty.kernel_to_string k'))))
    sr_pins

(* A[i+1] is within the trip count (3) of both classes on its residue —
   A[i]'s and A[i+3]'s — and joins the one created first: a 2-register
   chain with A[i], not a 3-register chain with A[i+3]. *)
let test_chain_first_fitting_class () =
  let src =
    {|
  int A[6];
  int B[3];
  for (i = 0; i < 3; i++)
    B[i] = A[i] + A[i+3] + A[i+1];
|}
  in
  let k =
    match Frontend.Parser.kernel_of_string_res ~name:"t" src with
    | Ok k -> k
    | Error msg -> Alcotest.fail msg
  in
  let k', rep = Transform.Scalar_replace.run k in
  Alcotest.(check (list (pair string int))) "one chain, A[i] with A[i+1]"
    [ ("A", 2) ] rep.Transform.Scalar_replace.chain_lengths;
  Helpers.check_equiv ~inputs:(Helpers.inputs_for k) ~reference:k k'
    "chain semantics"

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
(* Fresh names *)

(* The from-zero probe [Names.fresh] resumes instead of repeating: the
   reference every interleaving must agree with. *)
let naive_fresh used base =
  let name =
    if not (Hashtbl.mem used base) then base
    else
      let rec go n =
        let cand = Printf.sprintf "%s_%d" base n in
        if Hashtbl.mem used cand then go (n + 1) else cand
      in
      go 0
  in
  Hashtbl.replace used name ();
  name

type names_op = Reserve of string | Fresh of string

let prop_fresh_matches_naive =
  (* Bases shaped like earlier results ([a] and [a_0]), and reservable
     names ahead of the probe ([a_2], [a_5]) or on a derived base. *)
  let bases = [ "a"; "a_0"; "a_1"; "b"; "a_h0" ] in
  let reservable =
    bases @ [ "a_2"; "a_5"; "a_0_0"; "a_0_3"; "a_1_0"; "b_1"; "a_h0_1" ]
  in
  Helpers.qtest "fresh agrees with the from-zero probe" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (frequency
           [
             (1, map (fun n -> Reserve n) (oneofl reservable));
             (3, map (fun b -> Fresh b) (oneofl bases));
           ]))
    (fun ops ->
      let k =
        B.kernel "t"
          ~arrays:[ Ast.array_decl "a" [ 4 ] ]
          [ B.store1 "a" (B.int 0) (B.int 1) ]
      in
      let names = Transform.Names.of_kernel k in
      let used = Hashtbl.create 16 in
      Hashtbl.replace used "a" ();
      List.for_all
        (function
          | Reserve n ->
              Transform.Names.reserve names n;
              Hashtbl.replace used n ();
              true
          | Fresh b -> Transform.Names.fresh names b = naive_fresh used b)
        ops)

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
          Alcotest.test_case "sweep-scale output pinned" `Quick
            test_scalar_replace_pinned;
          Alcotest.test_case "chain joins first fitting class" `Quick
            test_chain_first_fitting_class;
          Alcotest.test_case "register budget" `Quick test_register_budget;
        ] );
      ("names", [ prop_fresh_matches_naive ]);
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
