(** Guest PC-sampling profiler.

    Samples the simulated program counter every [interval] retired
    instructions per hart, bucketing hits by (owning CVM, 4 KiB code
    page). The sampler lives on the interpreter's hot path behind a
    single branch (like [Trace.is_enabled]): the common non-sample
    path is a decrement, a compare and a store on the hart — no call
    and no allocation.

    Sampling happens on the Secure-Monitor side of the trust
    boundary: the SM can observe guest PCs, and deployments must
    disclose that (see DESIGN.md threat-model notes). Buckets are
    keyed by the CVM id installed with {!set_context} — hits while no
    CVM context is installed are attributed to the host ([cvm = -1]).

    Output: a top-K hot-pages table and folded-stack lines
    ("cvm-1;page-0x12000 42") consumable by standard flamegraph
    tooling. Optional {!add_region} annotations name code regions so
    folded output reads "cvm-1;resp_loop;page-0x12000 42". *)

type t

val default_interval : int
(** 64 retired instructions per sample. *)

val create : ?interval:int -> nharts:int -> unit -> t
(** [interval] defaults to {!default_interval} and must be positive. *)

val interval : t -> int

val record : t -> hart:int -> pc:int64 -> unit
(** Record one hit for [pc]'s page under the hart's current CVM
    context. The interpreter keeps each hart's countdown on the hart
    ([Riscv.Hart.sample_in]) and calls this only on expiry, so a
    retired instruction costs no call into this module. *)

val set_context : t -> hart:int -> cvm:int -> unit
(** Attribute subsequent samples on [hart] to [cvm] ([-1] = host).
    Called at world-switch entry/exit. Allocation-free. *)

val add_region : t -> cvm:int -> lo:int64 -> hi:int64 -> string -> unit
(** Name the guest-physical code region [lo, hi) (page-granular) for
    [cvm]; folded output and the hot-pages table annotate pages
    falling inside it. *)

val samples : t -> int
(** Total hits recorded. *)

val top_pages : ?k:int -> t -> (int * int64 * string option * int) list
(** [(cvm, page_base, region_name, hits)] sorted by descending hits,
    at most [k] (default 10) rows. *)

val folded : t -> string
(** Folded-stack lines, one per bucket, sorted by descending hits:
    ["host;page-0x80000 7"] / ["cvm-1;resp_loop;page-0x12000 42"]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable hot-pages table. *)

val reset : t -> unit
(** Zero all buckets; keeps interval, contexts and regions. The
    countdowns live on the harts and are not reset. *)
