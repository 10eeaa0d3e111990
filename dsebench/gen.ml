(** Seeded C-subset kernel sources for the benchmark workloads.

    Each synthetic kernel is a window stencil from a fixed catalog of
    shapes: the catalog fixes taps, trip counts, element types and
    rounding shift, and the seed draws every tap's coefficient and sign.
    Coefficients come from [coefficients], none of them a power of two
    or one, so every draw costs the estimator the same shift-add
    multiplier: cycles, area and sweep cost are the same for every seed,
    while the values the design computes (checked against the reference
    interpreter) are not. *)

type shape = {
  name : string;
  elem_in : string;
  elem_out : string;
  extents : int list;  (** array extents, outermost first *)
  bounds : (int * int) list;  (** loop [lo, hi) per dimension *)
  taps : int list list;  (** subscript offsets per dimension *)
  shift : int;  (** divide the sum by [2^shift]; 0 for none *)
}

let coefficients = [| 3; 5; 6; 7; 9; 10; 11; 12; 13; 14; 15 |]

let window ~rows ~cols =
  List.concat_map (fun r -> List.map (fun c -> [ r; c ]) cols) rows

let catalog =
  [
    {
      name = "win3x3";
      elem_in = "int8";
      elem_out = "int16";
      extents = [ 20; 20 ];
      bounds = [ (1, 19); (1, 19) ];
      taps = window ~rows:[ -1; 0; 1 ] ~cols:[ -1; 0; 1 ];
      shift = 0;
    };
    {
      name = "row5";
      elem_in = "int16";
      elem_out = "int32";
      extents = [ 24; 42 ];
      bounds = [ (0, 22); (1, 41) ];
      taps = [ [ 0; -1 ]; [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 2; 0 ] ];
      shift = 0;
    };
    {
      name = "cross5";
      elem_in = "uint8";
      elem_out = "int16";
      extents = [ 32; 32 ];
      bounds = [ (1, 31); (1, 31) ];
      taps = [ [ 0; 0 ]; [ -1; 0 ]; [ 1; 0 ]; [ 0; -1 ]; [ 0; 1 ] ];
      shift = 3;
    };
    {
      name = "box2x2";
      elem_in = "uint16";
      elem_out = "int32";
      extents = [ 28; 28 ];
      bounds = [ (0, 27); (0, 27) ];
      taps = window ~rows:[ 0; 1 ] ~cols:[ 0; 1 ];
      shift = 2;
    };
    {
      name = "stencil3d";
      elem_in = "int16";
      elem_out = "int16";
      extents = [ 16; 16; 16 ];
      bounds = [ (1, 15); (1, 15); (1, 15) ];
      taps =
        [
          [ 0; 0; 0 ];
          [ -1; 0; 0 ];
          [ 1; 0; 0 ];
          [ 0; -1; 0 ];
          [ 0; 1; 0 ];
          [ 0; 0; -1 ];
          [ 0; 0; 1 ];
        ];
      shift = 4;
    };
  ]

let find name =
  match List.find_opt (fun s -> s.name = name) catalog with
  | Some s -> s
  | None -> invalid_arg ("Gen.find: no shape " ^ name)

let indices = [| "i"; "j"; "k" |]

let subscript idx off =
  if off = 0 then idx
  else if off > 0 then Printf.sprintf "%s+%d" idx off
  else Printf.sprintf "%s-%d" idx (-off)

let access array offs =
  array
  ^ String.concat ""
      (List.mapi (fun d off -> "[" ^ subscript indices.(d) off ^ "]") offs)

(** The kernel's C-subset text for [seed]: same seed, same text. *)
let source ~seed (s : shape) : string =
  let rng = Random.State.make [| seed; Hashtbl.hash s.name |] in
  let terms =
    List.mapi
      (fun n offs ->
        let c = coefficients.(Random.State.int rng (Array.length coefficients)) in
        let sign =
          if n = 0 then "" else if Random.State.bool rng then " + " else " - "
        in
        Printf.sprintf "%s%d*%s" sign c (access "A" offs))
      s.taps
  in
  let sum = String.concat "" terms in
  let rhs = if s.shift = 0 then sum else Printf.sprintf "(%s) / %d" sum (1 lsl s.shift) in
  let dims = String.concat "" (List.map (Printf.sprintf "[%d]") s.extents) in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%s A%s;\n%s B%s;\n" s.elem_in dims s.elem_out dims;
  List.iteri
    (fun d (lo, hi) ->
      let i = indices.(d) in
      Printf.bprintf buf "%sfor (%s = %d; %s < %d; %s++)\n"
        (String.make (2 * d) ' ') i lo i hi i)
    s.bounds;
  Printf.bprintf buf "%s%s = %s;\n"
    (String.make (2 * List.length s.bounds) ' ')
    (access "B" (List.map (fun _ -> 0) s.bounds))
    rhs;
  Buffer.contents buf

(** Built-in and gallery kernels as the source text the CLI parses. *)
let builtin =
  [
    ("fir", Kernels.fir_src);
    ("mm", Kernels.mm_src);
    ("pat", Kernels.pat_src);
    ("jac", Kernels.jac_src);
    ("sobel", Kernels.sobel_src);
    ("corr", Gallery.corr_src);
    ("laplace", Gallery.laplace_src);
    ("erosion", Gallery.erosion_src);
    ("dilation", Gallery.dilation_src);
    ("conv1d", Gallery.conv1d_src);
    ("transpose", Gallery.transpose_src);
    ("boxblur", Gallery.boxblur_src);
    ("downsample", Gallery.downsample_src);
    ("histogram", Gallery.histogram_src);
  ]

(** Source text of a named input: a built-in, or a catalog shape drawn
    with [seed]. *)
let text ~seed name =
  match List.assoc_opt name builtin with
  | Some src -> src
  | None -> source ~seed (find name)
