(** The benchmark workloads and one repetition of each: set-up, the
    timed cold phase, and the warm re-run against the store the cold
    phase persisted. Every call goes through the library entry points
    the [defacto] CLI uses, at its defaults (backend, domain count,
    max_product, tile candidates). *)

open Ir
module Design = Dse.Design
module Space = Dse.Space
module Persist = Engine.Persist

type kind =
  | Sweep of { max_product : int; verify : bool }
      (** [defacto space [--verify]] per kernel *)
  | Joint of { max_product : int }  (** [defacto space --joint] per kernel *)
  | Session  (** [defacto explore -k ... -k ...] as one batched session *)

type t = {
  name : string;
  kind : kind;
  inputs : string list;  (** built-in names and {!Gen} shapes *)
  why : string;
}

let synthetic = List.map (fun (s : Gen.shape) -> s.Gen.name) Gen.catalog

let all =
  [
    {
      name = "sweep";
      kind = Sweep { max_product = 1024; verify = false };
      inputs = [ "jac"; "sobel"; "win3x3"; "row5"; "stencil3d" ];
      why =
        "exhaustive unroll sweep: per-point transform cost dominates and \
         grows with the unroll product";
    };
    {
      name = "joint";
      kind = Joint { max_product = 1024 };
      inputs = [ "fir"; "mm"; "sobel" ];
      why =
        "joint transform-configuration sweep: the number of evaluated \
         configurations dominates; fir and mm select strictly better than \
         unroll-only";
    };
    {
      name = "session";
      kind = Session;
      inputs = List.map fst Gen.builtin @ synthetic;
      why =
        "Figure-2 search over all kernels as one persisted session, cold \
         then warm: few points per kernel, persist I/O on both halves";
    };
    {
      name = "verify";
      kind = Sweep { max_product = 256; verify = true };
      inputs = [ "jac"; "sobel"; "fir" ];
      why =
        "translation-validated unroll sweep: the check layer costs several \
         times the sweep and is idle in every other workload";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(** Whether the workload translation-validates every evaluation. *)
let verifies w = match w.kind with Sweep { verify; _ } -> verify | _ -> false
let now = Unix.gettimeofday

(** One kernel's selected design, detached from its evaluation context
    so the context's store can be freed. *)
type sel = {
  key : string * string * int * int;  (** kernel, configuration, cycles, slices *)
  source : Ast.kernel;
  profile : Hls.Estimate.profile;
  design : Ast.kernel;  (** the selected point's transformed kernel *)
}

let sel name (ctx : Design.context) (p : Design.point) =
  {
    key = (name, Design.config_to_string p.Design.config, Design.cycles p, Design.space p);
    source = ctx.Design.source;
    profile = ctx.Design.profile;
    design = p.Design.kernel;
  }

type outcome = {
  kernel : string;
  sel : (sel, string) result;
  evaluations : int;  (** full syntheses this phase ran for the kernel *)
}

type setup = {
  kernels : (string * Ast.kernel) list;
  ctxs : Design.context list;  (** empty for [Session]: it builds its own *)
  parse_s : float;
}

(** Generate and parse the inputs and build the evaluation contexts. *)
let setup ?probe ~seed w =
  let texts = List.map (fun n -> (n, Gen.text ~seed n)) w.inputs in
  let t0 = now () in
  let kernels =
    List.map
      (fun (name, src) -> (name, Frontend.Parser.kernel_of_string ~name src))
      texts
  in
  let parse_s = now () -. t0 in
  let backend = Probe.backend probe in
  let verify = verifies w in
  let ctxs =
    match w.kind with
    | Session -> []
    | Sweep _ | Joint _ -> List.map (fun (_, k) -> Design.context ~verify ~backend k) kernels
  in
  { kernels; ctxs; parse_s }

(** What the design-space layer reported, for the traced analysis. *)
type detail = {
  sweep_points : int;
  joints : Space.joint list;
  searches : Dse.Driver.outcome list;
}

let no_detail = { sweep_points = 0; joints = []; searches = [] }

(** A phase's totals over its timed sections. *)
type phase = {
  wall_s : float;  (** at the host's reference speed (see {!Speed}) *)
  raw_s : float;  (** as read from the clock *)
  outcomes : outcome list;  (** per kernel, in input order *)
  loaded_points : int;
  minor_words : float;
  major_collections : int;
}

(* Time [f] from a collected heap, as a fresh CLI process would start,
   so one section's garbage is not charged to the next. [during] is
   passed to {!Speed.timed}. *)
let timed ~during f =
  Gc.full_major ();
  let m0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  let r, scaled, raw = Speed.timed ~during f in
  let minor = Gc.minor_words () -. m0 and major = (Gc.quick_stat ()).Gc.major_collections - g0 in
  (r, (scaled, raw), minor, major)

let add_section ph (outcomes, (dt, raw), minor, major) loaded =
  {
    wall_s = ph.wall_s +. dt;
    raw_s = ph.raw_s +. raw;
    outcomes = ph.outcomes @ outcomes;
    loaded_points = ph.loaded_points + loaded;
    minor_words = ph.minor_words +. minor;
    major_collections = ph.major_collections + major;
  }

let empty = { wall_s = 0.0; raw_s = 0.0; outcomes = []; loaded_points = 0; minor_words = 0.0; major_collections = 0 }

(* The per-kernel work of a sweep-like workload: [defacto space]'s sweep
   and selection. *)
let explore ?probe w ctx name =
  let pick = function
    | Some p -> Ok (sel name ctx p)
    | None -> Error "no fitting design"
  in
  try
    match w.kind with
    | Sweep { max_product; _ } ->
        let sp = Probe.span probe (fun () -> Space.sweep ~max_product ctx) in
        let best = Probe.span probe (fun () -> Space.best_fitting ctx sp) in
        ( pick (Option.map (fun (b : Space.sweep_point) -> b.Space.point) best),
          { no_detail with sweep_points = List.length sp.Space.points } )
    | Joint { max_product } ->
        let j = Probe.span probe (fun () -> Space.sweep_joint ~max_product ctx) in
        let best = Probe.span probe (fun () -> Space.joint_best ctx j) in
        ( pick (Option.map (fun (b : Space.joint_point) -> b.Space.point) best),
          { no_detail with joints = [ j ] } )
    | Session -> invalid_arg "explore: session"
  with e -> (Error (Printexc.to_string e), no_detail)

let config_of (ctx : Design.context) =
  Persist.config_string ~backend:ctx.Design.backend.Engine.Backend.name
    ctx.Design.profile ctx.Design.pipeline

let save ~cache_dir (ctx : Design.context) =
  let config = config_of ctx in
  let store = ctx.Design.store in
  Persist.save_points ~cache_dir ~config ~kernel_key:(Persist.kernel_key ctx.Design.source) store;
  Persist.save_memo ~cache_dir ~config store.Engine.Store.sched_memo

(* [defacto explore -k ... -k ...] over the cache directory. *)
let session ?probe ~cache_dir ~cold (kernels : (string * Ast.kernel) list) =
  let tasks = List.map (fun (name, kernel) -> { Engine.name; kernel }) kernels in
  let backend = Probe.backend probe in
  match
    Probe.span probe (fun () -> Dse.Driver.run_many ~cache_dir ~cold ~backend tasks)
  with
  | exception e ->
      let msg = Printexc.to_string e in
      (List.map (fun (kernel, _) -> { kernel; sel = Error msg; evaluations = 0 }) kernels, None)
  | summary ->
      let outcome (o : Dse.Driver.outcome) =
        let name = o.Dse.Driver.task.Engine.name and ctx = o.Dse.Driver.ctx in
        let p = o.Dse.Driver.search.Dse.Search.selected in
        {
          kernel = name;
          sel = (if Design.fits ctx p then Ok (sel name ctx p) else Error "selected design does not fit");
          evaluations = o.Dse.Driver.stats.Design.evaluations;
        }
      in
      (List.map outcome summary.Dse.Driver.outcomes, Some summary)

(** The cold phase: each kernel explored on a fresh context. The timed
    sections are the CLI's work without a cache directory; each store is
    then persisted untimed, as [defacto space --cache-dir] would, for
    the warm phase. A session is one timed [Driver.run_many] that saves
    its own store. [observe] sees every explored context (and what the
    design-space layer reported) after its timed section, before it is
    dropped. The speed is sampled during the sections when [during]
    holds (see {!Speed.timed}); by default, when untraced. *)
let cold ?probe ?(observe = fun _ _ -> ()) ?during ~cache_dir w (s : setup) =
  let during = Option.value during ~default:(probe = None) in
  match w.kind with
  | Session ->
      let (outcomes, summary), dt, minor, major =
        timed ~during (fun () -> session ?probe ~cache_dir ~cold:true s.kernels)
      in
      Option.iter
        (fun (sm : Dse.Driver.summary) ->
          let outs = sm.Dse.Driver.outcomes in
          observe
            (List.map (fun (o : Dse.Driver.outcome) -> o.Dse.Driver.ctx) outs)
            { no_detail with searches = outs })
        summary;
      add_section empty (outcomes, dt, minor, major) 0
  | Sweep _ | Joint _ ->
      List.fold_left2
        (fun ph (name, _) ctx ->
          let (r, detail), dt, minor, major = timed ~during (fun () -> explore ?probe w ctx name) in
          save ~cache_dir ctx;
          observe [ ctx ] detail;
          let o = { kernel = name; sel = r; evaluations = ctx.Design.stats.Design.evaluations } in
          add_section ph ([ o ], dt, minor, major) 0)
        empty s.kernels s.ctxs

(** The warm phase: the same commands re-run against the store the cold
    phase persisted — load, then explore from the cache. (The CLI also
    saves again afterwards, rewriting what it loaded; that disk write is
    left out: its time is the file system's, not the program's.) A
    session saves inside [Driver.run_many], so its warm phase does. *)
let warm ~cache_dir w (kernels : (string * Ast.kernel) list) =
  match w.kind with
  | Session ->
      let (outcomes, summary), dt, minor, major =
        timed ~during:true (fun () -> session ~cache_dir ~cold:false kernels)
      in
      let loaded =
        match summary with
        | Some sm ->
            List.fold_left
              (fun n (o : Dse.Driver.outcome) -> n + o.Dse.Driver.loaded_points)
              0 sm.Dse.Driver.outcomes
        | None -> 0
      in
      add_section empty (outcomes, dt, minor, major) loaded
  | Sweep _ | Joint _ ->
      let verify = verifies w in
      List.fold_left
        (fun ph (name, k) ->
          let (o, loaded), dt, minor, major =
            timed ~during:true (fun () ->
                let store = Engine.Store.create () in
                let ctx = Design.context ~verify ~store k in
                let config = config_of ctx in
                let loaded =
                  Persist.load_points ~cache_dir ~config ~kernel_key:(Persist.kernel_key k) store
                in
                ignore (Persist.load_memo ~cache_dir ~config store.Engine.Store.sched_memo);
                let r, _ = explore w ctx name in
                ( { kernel = name; sel = r; evaluations = ctx.Design.stats.Design.evaluations },
                  loaded ))
          in
          add_section ph ([ o ], dt, minor, major) loaded)
        empty kernels
