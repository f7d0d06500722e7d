(** One declarative spec per JSON-lines artifact family.

    A family is the set of files one producer writes: [bench.scaling],
    [bench.serve], [bench.reclaim], [bench.snapshot] and [bench.hotpath]
    sweeps, the [trace.report] tail-attribution grid, [trend.check]
    reports, and registry metrics exports ([harness.run]).  Its spec
    states the schema (which line types must exist, which fields they
    carry), the acceptance gate (coverage of the swept axes, paired-arm
    ratio predicates, monotonicity along an axis, gate booleans that must
    hold), and which points the trend gate compares.  [validate_metrics]
    and {!Trend} both read these specs, so a family's schema and its
    trend series are defined once. *)

module J = Hwts_obs.Json

type kind =
  | Str
  | Int
  | Float
  | Bool
  | One_of of string list  (** a string from the list *)
  | Within of float * float  (** a number in the closed interval *)

type sel = (string * J.t) list
(** Lines whose fields equal these values, e.g.
    [[ ("type", Str "point"); ("provider", Str "adaptive") ]]. *)

type pred =
  | Lower of string  (** arm a's field strictly below arm b's *)
  | Ratio_at_least of string * float  (** a / b >= bound (b > 0) *)

type rule =
  | Some_lines of sel  (** at least one line *)
  | One_line of sel  (** exactly one line *)
  | Fields of sel * (string * kind) list
      (** every selected line carries these fields; a dotted name
          (["optimized.mops"]) reaches into a nested object *)
  | Holds of sel * string list  (** these fields are [true] on every line *)
  | Covers of sel * string * string list
      (** the field takes each listed value on some line *)
  | Distinct of sel * string * int  (** the field takes >= n values *)
  | Matched of sel * string * sel
      (** every value the field takes on the first selection also
          appears on the second *)
  | Pairs of {
      a : sel;
      b : sel;
      on : string list;  (** fields a pair agrees on *)
      from : string * int;  (** only where this axis is >= the bound *)
      preds : pred list;
    }
      (** at least one pair exists and every pair satisfies [preds] *)
  | Decreasing of {
      sel : sel;
      series : string list;
      axis : string;
      metric : string;
    }
      (** within each series, [metric] strictly decreases as the integer
          [axis] grows *)

type trend = {
  points : sel;
  series : string list;  (** field values joined by ['/'] name a series *)
  subkey : string list;  (** field values that place a point in its series *)
  mops : string;  (** the compared throughput field *)
  words : string option;  (** words/op, reported alongside *)
}

type t = {
  name : string;  (** the [name] field that marks a file as this family *)
  rules : rule list;
  trend : trend option;  (** [None]: the family has no throughput to diff *)
}

val scaling : t
val serve : t
val reclaim : t
val snapshot : t
val hotpath : t
val tailattr : t
val trend_report : t

val metrics : t
(** Registry exports: the canonical counters and histograms.  Also the
    family of any file no other spec claims. *)

val detect : J.t list -> t
(** The first family with a line carrying its name, else {!metrics}. *)

val matches : sel -> J.t -> bool
(** Whether a line has every field value the selection names. *)

val num : J.t -> string -> float option
(** A numeric field of a line; a dotted name reaches into a nested
    object. *)

val median : 'a list -> 'a
(** The sweep convention for medians: the upper middle element of the
    sorted values ([a.(n/2)]), so an even count picks a measured value
    rather than an average.  Raises [Invalid_argument] on no values. *)

val validate : t -> J.t list -> (string, string list) result
(** [Ok summary] or the sorted, de-duplicated rule violations. *)

type point = {
  series : string;
  subkey : string;
  mops : float;
  words_per_op : float;  (** 0 when the family records none *)
}

val points : t -> J.t list -> point list
(** The family's trend points; empty when it has no trend spec. *)

val scale_mops : t -> ?only:string -> factor:float -> J.t list -> J.t list * int
(** Copy of the lines with the trend throughput scaled by [factor] (only
    in series [only] when given), and the number of lines changed. *)

val read_lines : string -> (J.t list, string) result
(** Parse a JSON-lines file; [Error] when unreadable or empty. *)
