(** The memory controller: bandwidth accounting and contention.

    Memory-intensive segments report the bytes they move; the controller
    aggregates them into fixed windows. Two outputs drive the experiments:

    - {!congestion}: how much slower a memory-bound segment runs given the
      previous window's utilization (used in Fig 13a, where membench's
      traffic inflates memcached's service times);
    - {!achieved}: per-app achieved bandwidth (the quantity Fig 13b plots
      against the regulation target). *)

type t

val create :
  ?capacity_bytes_per_ns:float ->
  ?window:Vessel_engine.Time.t ->
  unit ->
  t
(** Defaults: 40 bytes/ns (40 GB/s per socket) and 100 us windows. *)

val consume : t -> app:int -> bytes:int -> at:Vessel_engine.Time.t -> unit
(** Record traffic. [at] must be non-decreasing across calls; [app] must
    lie in [\[0, Vessel_engine.Id_table.max_id\]]. *)

val congestion : t -> float
(** >= 1. Multiplier for memory-bound work: 1 while the previous window's
    demand fits in the capacity, proportional beyond it. *)

val utilization : t -> float
(** Previous window's demand / capacity (may exceed 1). *)

val total_bytes : t -> app:int -> int

val achieved :
  t -> app:int -> wall:Vessel_engine.Time.t -> float
(** Average bytes/ns over the run so far. *)

val capacity : t -> float
(** bytes/ns. *)

val apps : t -> int list
