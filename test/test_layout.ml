(** Data layout tests: bank shape selection, virtual ids, physical
    binding, and the code-level renaming with scatter/gather round trips. *)

open Ir
module B = Builder
module Access = Analysis.Access
module Layout = Data_layout.Layout
module Renaming = Data_layout.Renaming

let layout_of ?(mems = 4) k =
  let accesses = Access.collect k.Ast.k_body in
  (Layout.assign ~num_memories:mems k accesses, accesses)

let transformed name vector =
  let k = Option.get (Kernels.find name) in
  let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
  r.Transform.Pipeline.kernel

(* ------------------------------------------------------------------ *)

let test_fir_banks_grow_with_unroll () =
  let k = transformed "fir" [ ("j", 2); ("i", 2) ] in
  let layout, _ = layout_of k in
  let bank a = List.assoc a layout.Layout.banks in
  Alcotest.(check bool) "S spread over memories" true (bank "S" > 1);
  Alcotest.(check bool) "D spread over memories" true (bank "D" > 1)

let test_no_memories_rejected () =
  let k = transformed "fir" [ ("j", 2); ("i", 2) ] in
  List.iter
    (fun mems ->
      match layout_of ~mems k with
      | _ -> Alcotest.failf "num_memories = %d accepted" mems
      | exception Invalid_argument _ -> ())
    [ 0; -2 ]

let test_conflict_structure () =
  (* a[2i] and a[2i+1]: residues 0 and 1 mod 2 -> different banks. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 32 ]; Ast.array_decl "o" [ 16 ] ]
      [
        B.for_ "i" 0 16 (fun i ->
            [ B.store1 "o" i B.(arr1 "a" (B.int 2 * i) + arr1 "a" ((B.int 2 * i) + B.int 1)) ]);
      ]
  in
  let layout, accesses = layout_of k in
  let a_reads = List.filter (fun (x : Access.t) -> x.array = "a") accesses in
  let mems = List.map (Layout.memory_of layout) a_reads in
  Alcotest.(check int) "two a reads" 2 (List.length mems);
  Alcotest.(check bool) "no conflict" true (List.nth mems 0 <> List.nth mems 1)

let test_non_uniform_single_memory () =
  (* a[i] and a[2i] are not uniformly generated: single bank. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 32 ]; Ast.array_decl "o" [ 8 ] ]
      [
        B.for_ "i" 0 8 (fun i ->
            [ B.store1 "o" i B.(arr1 "a" i + arr1 "a" (B.int 2 * i)) ]);
      ]
  in
  let layout, _ = layout_of k in
  Alcotest.(check int) "one bank" 1 (List.assoc "a" layout.Layout.banks)

let test_2d_shape () =
  (* b[i][j], b[i+1][j], b[i][j+1], b[i+1][j+1] want a 2x2 shape. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "b" [ 8; 8 ]; Ast.array_decl "o" [ 16 ] ]
      [
        B.for_ ~step:2 "i" 0 8 (fun i ->
            [
              B.for_ ~step:2 "j" 0 8 (fun j ->
                  [
                    B.store1 "o" B.(i + j)
                      B.(
                        arr2 "b" i j + arr2 "b" (i + B.int 1) j
                        + arr2 "b" i (j + B.int 1)
                        + arr2 "b" (i + B.int 1) (j + B.int 1));
                  ]);
            ]);
      ]
  in
  let layout, accesses = layout_of k in
  Alcotest.(check (list int)) "2x2 shape" [ 2; 2 ] (List.assoc "b" layout.Layout.shapes);
  let b_reads = List.filter (fun (x : Access.t) -> x.array = "b") accesses in
  let mems = List.sort_uniq compare (List.map (Layout.memory_of layout) b_reads) in
  Alcotest.(check int) "four distinct memories" 4 (List.length mems)

let test_reads_bound_first () =
  let k = transformed "fir" [ ("j", 2); ("i", 2) ] in
  let layout, accesses = layout_of k in
  let first_read = List.find Access.is_read accesses in
  Alcotest.(check int) "first read on memory 0" 0
    (Layout.memory_of layout first_read)

(* ------------------------------------------------------------------ *)
(* Renaming *)

let test_renaming_fir () =
  let k = transformed "fir" [ ("j", 2); ("i", 2) ] in
  let d = Renaming.rewrite ~num_memories:4 k in
  Alcotest.(check bool) "some array split" true (d.Renaming.split <> []);
  List.iter
    (fun (orig, banks) ->
      Alcotest.(check bool)
        (orig ^ " bank names extend the original")
        true
        (List.for_all (fun b -> String.length b > String.length orig) banks))
    d.Renaming.split

let test_renaming_semantics () =
  List.iter
    (fun (name, vector) ->
      let k0 = Option.get (Kernels.find name) in
      let k = transformed name vector in
      let d = Renaming.rewrite ~num_memories:4 k in
      let inputs = Kernels.test_inputs k0 in
      let ref_out = Eval.observables (Eval.run ~inputs k0) in
      let dist_in = Renaming.scatter d k inputs in
      let dist_out = Eval.observables (Eval.run ~inputs:dist_in d.Renaming.kernel) in
      let out = Renaming.gather d k dist_out in
      List.iter
        (fun (arr, data) ->
          match List.assoc_opt arr out with
          | Some data' ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s array %s" name
                   (Helpers.vector_to_string vector) arr)
                true (data = data')
          | None -> Alcotest.failf "array %s missing after gather" arr)
        ref_out)
    [
      ("fir", [ ("j", 2); ("i", 2) ]);
      ("fir", [ ("j", 4); ("i", 4) ]);
      ("pat", [ ("j", 1); ("i", 4) ]);
      ("mm", [ ("i", 2); ("j", 2) ]);
    ]

let test_renaming_linearizes () =
  let k = transformed "mm" [] in
  let d = Renaming.rewrite ~num_memories:4 k in
  List.iter
    (fun (a : Ast.array_decl) ->
      Alcotest.(check int) (a.a_name ^ " flat") 1 (List.length a.a_dims))
    d.Renaming.kernel.Ast.k_arrays

let () =
  Alcotest.run "layout"
    [
      ( "banks",
        [
          Alcotest.test_case "FIR banks grow with unroll" `Quick
            test_fir_banks_grow_with_unroll;
          Alcotest.test_case "conflict structure" `Quick test_conflict_structure;
          Alcotest.test_case "non-uniform stays single" `Quick
            test_non_uniform_single_memory;
          Alcotest.test_case "2D block-cyclic shape" `Quick test_2d_shape;
          Alcotest.test_case "reads bound first" `Quick test_reads_bound_first;
          Alcotest.test_case "no memories rejected" `Quick
            test_no_memories_rejected;
        ] );
      ( "renaming",
        [
          Alcotest.test_case "FIR splits" `Quick test_renaming_fir;
          Alcotest.test_case "scatter/gather semantics" `Quick
            test_renaming_semantics;
          Alcotest.test_case "linearizes multi-dim arrays" `Quick
            test_renaming_linearizes;
        ] );
    ]
