(** A minimal JSON value type with a printer and a parser, without an
    external dependency.  Every JSON document the program emits is built
    as a [t] and rendered here: metric snapshots, Chrome traces, service
    response lines, [prevv sweep --json] and the bench baseline
    [BENCH_sim.json].

    The printer is deterministic: object members are emitted in the order
    given, numbers with a fixed format, strings with standard escapes.  The
    parser accepts the full JSON grammar (objects, arrays, strings with
    escapes, numbers, booleans, null); it round-trips the files this
    library writes in tests and reads bench baselines back for
    [bench --check]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Render [t] into [buf] (compact, no whitespace). *)
val to_buffer : Buffer.t -> t -> unit

(** Compact rendering. *)
val to_string : t -> string

(** Rendering for documents people read and diff: a list or object whose
    one-line form would run past column 100 gets one member per line,
    indented two spaces per level; everything that fits stays on one
    line, with a space after each [,] and [:].  Ends with a newline. *)
val to_string_pretty : t -> string

(** [fixed digits x] is [Float x] rounded to [digits] decimal places: the
    value a [%.{digits}f] rendering shows, for fields whose precision is
    part of the document (timings, ratios). *)
val fixed : int -> float -> t

(** Parse a complete JSON document; trailing non-whitespace is an error.
    Numbers without [.]/[e] land in [Int], others in [Float]. *)
val parse : string -> (t, string) result

(** {1 Accessors} (for tests and schema checks) *)

(** [member name j] is the value of field [name] when [j] is an object. *)
val member : string -> t -> t option

val to_list_opt : t -> t list option
val to_int_opt : t -> int option

(** An [Int] or a [Float], as a float: the parser puts [2.0] in [Float]
    and [2] in [Int], and a numeric check must not care which. *)
val to_float_opt : t -> float option

val to_bool_opt : t -> bool option
val to_string_opt : t -> string option
