(** The shape every workload shares. *)

type arm = Cvm | Normal
(** Confidential VM through the SM's short path, or the normal-VM
    reference under plain KVM. *)

type t = {
  name : string;
  op : string;  (** what one op is; metrics are per op *)
  prepare : seed:int -> scale:float -> arm -> Obs.t -> int;
      (** [prepare ~seed ~scale] draws the inputs and the reference
          outputs once; the function it returns runs one pass of an arm
          on fresh testbeds and returns the ops attempted. Every pass of
          one preparation sees identical inputs. *)
}

val sized : scale:float -> int -> int
(** [full] scaled and rounded, at least 1. *)

val shuffle : Workloads.Prng.t -> 'a array -> unit
(** Fisher-Yates, in place, driven by the seed's generator. *)

val create_guest :
  Obs.t -> Platform.Testbed.t -> arm -> image:(int64 * string) list ->
  (Obs.guest, string) result
(** The arm's VM, through {!Obs.create_cvm} or {!Obs.create_nvm}. *)
