(** The page table of a shared memory address space.

    Maps page numbers to entries (permission bits + MPK tag). The manager
    populates it via {!map_range} (mmap) and retags via
    {!pkey_protect_range} (pkey_mprotect). Every simulated load/store/fetch
    goes through {!access}.

    Pages are held as sorted, disjoint page ranges, each with one entry,
    as SMAS maps whole regions: a table holds tens of ranges however many
    pages it maps, so mapping a 64 MiB region costs the same as mapping
    one page. The four range operations rebuild the range set in
    O(ranges); a lookup compares against the last range hit and, on a
    miss, binary-searches the ranges. The semantics are per page. *)

type t

val create : unit -> t

val map_range : t -> addr:int -> len:int -> prot:Page.prot -> pkey:Pkey.t -> unit
(** Map (or remap) all pages overlapping [addr, addr+len). [len > 0]. *)

val unmap_range : t -> addr:int -> len:int -> unit

val protect_range : t -> addr:int -> len:int -> prot:Page.prot -> unit
(** mprotect: change permission bits, keep the key. Raises [Invalid_argument]
    if any page in the range is unmapped. *)

val pkey_protect_range : t -> addr:int -> len:int -> pkey:Pkey.t -> unit
(** pkey_mprotect: retag, keep the permission bits. Raises on unmapped. *)

val lookup : t -> addr:int -> Page.entry option

val access :
  t -> pkru:Pkru.t -> addr:int -> Page.access -> (unit, Page.fault) result
(** Check one byte access at [addr]. *)

val access_range :
  t -> pkru:Pkru.t -> addr:int -> len:int -> Page.access ->
  (unit, int * Page.fault) result
(** Check every page overlapping the range; on failure returns the faulting
    address. *)

val mapped_pages : t -> int
