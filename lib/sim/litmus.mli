(** The DPOR litmus library: every model-checked subject and scenario of
    the repository as one table of rows. A row names its queue by
    registry spec ([ring?capacity=1&mf=0], [fps?mf=1],
    [kp-opt12?help=all&phase=scan]; seeded bugs as
    [fps?mf=1&fault=stale-helper]) and carries its init, scripts,
    certified step bound, schedule floor and verdict. [wfq_check dpor]
    and the tests iterate {!rows}: a new backend or seeded fault gets
    DPOR coverage from one row here. *)

type expect =
  | Pass  (** every explored trace linearizable and conserving *)
  | Must_fail of int
      (** a seeded bug: DPOR must find it and shrink the counterexample
          to at most this many forced decisions *)

type row = {
  queue : string;  (** the subject's [wfq_check --queue] name *)
  name : string;
  spec : string;  (** the registry spec, for {!Check.of_spec} *)
  init : int list;  (** pre-enqueued before any fiber starts *)
  scripts : Check.script list;
  bound : int option;
      (** certified per-fiber step bound: sharp, the DPOR-exhaustive
          maximum measured on [spec] *)
  floor : int;  (** the schedule cap is raised to at least this *)
  step_limit : int option;
  expect : expect;
}

val rows : row list
(** Every row: the clean ([Pass]) libraries of ms, kp-base, kp-opt12,
    kp-fps, kp-hp, ring and polylog, then the five seeded faults
    ([Must_fail], named after the fault). *)

val subjects : (string * string) list
(** The [wfq_check --queue] names and the spec each stands for
    ([kp-fps] is [fps?mf=1], [ms] is [lf], ...). *)

val spec_of : string -> string
(** A subject's spec; any other string is taken as a spec itself. *)

val shared : (string * Check.script list) list
(** The five scenarios every linked-list subject runs (enq-race,
    enq-vs-deq, pairs, prod-cons, three-way). *)

val for_queue : string -> row list
(** A subject's clean rows; for any other spec, {!shared} over it,
    unbounded. *)

val is_batch : row -> bool
(** Whether some script uses a batch operation. *)

val run : ?max_schedules:int -> row -> Check.report
(** Explore the row under DPOR with its bound and step limit, the cap
    [max_schedules] (default 200,000) raised to the row's floor. *)

val shrunk_length : Check.failure -> int
(** Forced decisions in the minimal counterexample. *)
