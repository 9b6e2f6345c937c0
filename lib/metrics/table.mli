(** Fixed-width text tables for benchmark output.

    Renders the same row/column layout as the paper's tables and figure
    data series so the bench harness output can be compared side by side
    with the publication. *)

type align = Left | Right

val render :
  ?align:align list ->
  header:string list ->
  string list list ->
  string
(** [render ~header rows] lays out a table with a rule under the header.
    [align] gives per-column alignment (default: first column left,
    the rest right). Rows shorter than the header are padded. *)

val print :
  ?align:align list -> header:string list -> string list list -> unit
(** [render] followed by [print_string]. *)

val fixed : int -> float -> string
(** [fixed d x] formats [x] with [d] decimals. *)

val signed_pct : float -> string
(** Formats a percent change as the paper does, e.g. ["+2.59"]. *)

val heading : string -> string
(** A prominent section banner (used per experiment). *)

val section : string -> unit
(** [heading] followed by [print_string]. *)
