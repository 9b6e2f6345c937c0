(** The RV64IMA interpreter: fetch/decode/execute of one hart.

    [step] performs one architectural step: deliver a pending enabled
    interrupt if any, otherwise fetch, decode and execute the instruction
    at pc. All architectural exceptions (page faults, access faults,
    illegal instructions, ecalls) are converted into traps through
    [Trap.take] — so M-mode firmware like the Secure Monitor observes
    them exactly as on hardware. Instruction-class cycle costs are
    charged to the hart's ledger. *)

val step : Hart.t -> unit

val run : Hart.t -> max_steps:int -> int
(** Run up to [max_steps] steps; stops early when the hart stalls in
    [wfi] with no interrupt pending. Returns steps executed. *)

exception Halt of int64
(** Raised when a test program executes the reserved halt idiom
    ([ebreak] in M mode): payload is the value of register a0. Guest
    code under a monitor never reaches it — [ebreak] traps normally
    below M. *)

val trace : bool ref
(** Debug: print mode/pc before each step. *)

val profile : Metrics.Profile.t option ref
(** PC-sampling profiler hook. [None] (the default) costs one branch
    per retired instruction; when set, every retired instruction counts
    down the hart's [Hart.sample_in], and each expiry passes the pc to
    [Metrics.Profile.record] and re-arms the countdown with the
    profile's interval. Installed/removed by
    [Monitor.enable_profiler]/[disable_profiler], which arms the harts
    of its machine when it installs a new profile. *)
