(** An in-memory key-value store speaking RESP — the Redis stand-in for
    the Figure 3 benchmark.

    Supports the operations redis-benchmark exercises: PING, SET, GET,
    INCR, LPUSH, RPUSH, LPOP, RPOP, SADD, SPOP, plus MSET, DEL, EXISTS,
    LRANGE, DBSIZE and FLUSHALL. [handle] processes one RESP-encoded
    request and returns the RESP-encoded reply; the per-request
    instruction mix (parse + execute + encode) is accumulated into the
    server's [Opcount] for the cycle model. *)

type t

val create : unit -> t

val handle : t -> string -> string
(** Process one RESP request; malformed input yields a RESP error
    reply, never an exception. *)

val handle_traced : ?trace:Metrics.Trace.t -> t -> string -> string
(** Like {!handle}, but when a trace is supplied and enabled each
    request allocates a fresh root span context, installs it on the
    trace ({!Metrics.Trace.set_ctx}) and wraps the work in a
    ["resp.request"] span carrying [op]/[bytes] args. The context is
    deliberately left installed after returning: the virtio
    completion and the world-switch events caused by this request are
    stamped with it until the next request's root replaces it. With no
    trace (or a disabled one) this is exactly [handle]. *)

val exec : t -> string list -> Resp.value
(** Execute a parsed command directly (used by unit tests). *)

val ops : t -> Opcount.t
(** Cumulative instruction mix of all requests handled. *)

val dbsize : t -> int

val locality : Opcount.locality
(** Hot working set of the server loop (small: dispatch + hashtable
    spine). *)

val benchmark_ops : string list
(** The operation names Figure 3 plots: PING, SET, GET, INCR, LPUSH,
    RPUSH, LPOP, RPOP, SADD. *)

val request_for : op:string -> key_space:int -> seq:int -> string
(** Build the [seq]-th RESP request of a redis-benchmark-style run for
    one operation type (keys cycle through [key_space] values, payloads
    are 3-byte values like the default redis-benchmark -d 3). *)
