(** Persistent on-disk evaluation stores.

    Layout under a cache directory (see the implementation header for
    the full story):

    {v
    <cache-dir>/v1/<config-hash>/
      CONFIG                    full configuration string, plain text
      schedmemo.bin             shared tri-schedule memo (kernel-agnostic)
      points-<kernel-hash>.bin  one design-point cache per kernel
    v}

    Every cached value is keyed by a configuration string that digests
    the store schema version, the estimator version
    ({!Hls.Estimate.version}), all device and memory-model parameters,
    operator chaining, the backend name and the base transform-pipeline
    options — change any of them and the store goes cold rather than
    stale. Corrupt, truncated or mismatched files read as absent; writes
    are atomic (temp file + rename). *)

val schema_version : int

(** The canonical configuration string for a run. Two runs share cached
    values iff their strings are equal. *)
val config_string :
  backend:string ->
  Hls.Estimate.profile ->
  Transform.Pipeline.options ->
  string

(** [Digest.to_hex] of {!config_string} — the on-disk directory name. *)
val config_key :
  backend:string ->
  Hls.Estimate.profile ->
  Transform.Pipeline.options ->
  string

(** Content digest of a kernel (its printed form, name excluded), naming
    the kernel's point-cache file. *)
val kernel_key : Ir.Ast.kernel -> string

(** Merge the persisted points for a kernel into the store (entries
    already present win). Returns the number of points loaded. Missing
    or invalid files load zero points. *)
val load_points :
  cache_dir:string -> config:string -> kernel_key:string -> Store.t -> int

(** Persist a kernel's point cache, merged with what is already on disk
    (the in-memory entries win). Creates the directory as needed. *)
val save_points :
  cache_dir:string -> config:string -> kernel_key:string -> Store.t -> unit

(** Merge the persisted tri-schedule memo into [memo]; returns the
    number of new block shapes. *)
val load_memo : cache_dir:string -> config:string -> Hls.Schedule.memo -> int

val save_memo : cache_dir:string -> config:string -> Hls.Schedule.memo -> unit

(** {2 Diagnosis and removal — [defacto cache stats|clear]} *)

type config_stats = {
  cs_key : string;  (** directory name (config hash) *)
  cs_config : string option;  (** CONFIG contents when readable *)
  cs_point_files : int;
  cs_points : int;  (** cached design points across readable files *)
  cs_memo_shapes : int;  (** block shapes in the memo; [-1] if absent *)
  cs_bytes : int;
  cs_invalid : int;  (** unreadable, mismatched or foreign files *)
}

type dir_stats = {
  ds_dir : string;
  ds_exists : bool;
  ds_configs : config_stats list;
  ds_bytes : int;
}

val stats : cache_dir:string -> dir_stats

(** Remove the store. Deletes only files matching the store's own layout
    and then the emptied directories — foreign files are kept and
    counted, so pointing this at the wrong directory cannot destroy
    data. Returns [(removed, kept)]. *)
val clear : cache_dir:string -> int * int
