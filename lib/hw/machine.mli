(** The assembled machine: cores, user-interrupt fabric, memory controller,
    shared LLC, cost model and simulation handle.

    One [Machine.t] per experiment run. The Uintr fabric's notify hook is
    wired at creation: posting to a running receiver schedules the delivery
    callback supplied by the embedding runtime (see
    {!set_uintr_dispatch}). *)

type t

val create :
  ?cost:Cost_model.t ->
  ?membw:Membw.t ->
  ?cache:Cache.t ->
  cores:int ->
  Vessel_engine.Sim.t ->
  t

val sim : t -> Vessel_engine.Sim.t
val cost : t -> Cost_model.t
val cores : t -> Core.t array
val core : t -> int -> Core.t
val ncores : t -> int
val membw : t -> Membw.t

val cache : t -> Cache.t
(** The shared LLC model: the one given to {!create}, or a default
    {!Cache.create} built on the first call. Call it only from the
    machine's own events (or while nothing runs it). *)

val uintr : t -> Uintr.t
val ipi : t -> Ipi.t

val inject : t -> Inject.t
(** The machine's fault-injection hooks (disabled unless a fault profile
    armed them). The Uintr notify path and the IPI fabric consult them
    here; the executor and call gate fetch them through this accessor. *)

val now : t -> Vessel_engine.Time.t

val set_uintr_dispatch : t -> (Uintr.receiver -> unit) -> unit
(** Install a delivery routine: called (synchronously, at senduipi/resume
    time) whenever the fabric decides a receiver must be notified. The
    routine typically schedules handler entry after [cost.uintr_delivery].
    Several routines may be installed (one per scheduling domain sharing
    the machine); each fires for every notification and filters by the
    receivers it owns. *)

val jitter : t -> Core.t -> int -> int
(** [Cost_model.jittered] with the core's own stream. *)

val total_account : t -> Vessel_stats.Cycle_account.t
(** Fresh merge of every core's accounting. *)
