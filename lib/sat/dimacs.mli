(** DIMACS CNF reader/writer — the interchange format the paper's
    benchmarks are distributed in.  The parser is tolerant the way real
    solvers are: comments anywhere, clauses spanning lines, and a header
    whose counts are taken as declarations (the clause count is checked,
    the variable count may over-declare, cf. Table 3's remark). *)

exception Parse_error of string

(** The largest variable count a header may declare ([2^28 - 1]). *)
val max_vars : int

(** [parse_string s] reads a DIMACS document.
    @raise Parse_error on malformed input, including a clause count that
    disagrees with the header, a negative count, or more than {!max_vars}
    declared variables. *)
val parse_string : string -> Cnf.t

(** [parse_file path] reads a DIMACS file from disk. *)
val parse_file : string -> Cnf.t

(** [to_string ?comment f] renders [f] as a DIMACS document, one clause per
    line, with an optional leading [c] comment. *)
val to_string : ?comment:string -> Cnf.t -> string

val write_file : ?comment:string -> string -> Cnf.t -> unit
