(** Versioned CAS objects (Wei et al., PPoPP'21), the building block of the
    vCAS range-query technique: vCAS's labeling of a {!Link}.

    A vCAS object is a link whose every successful write installs a new
    version carrying the written value and a timestamp that starts unset
    and is filled in by {e whichever} thread first needs it ("helping") —
    the fine-grained timestamp-labeling discipline that Section IV
    credits for vCAS's large hardware-timestamp gains: reading the clock
    and labeling the object need not be atomic. *)

module Helping (T : Hwts.Timestamp.S) (C : Link.CELL) : sig
  (** Labeling by helping, on the versions a link keeps among its owner's
      nodes. *)

  include Link.LABELING with type 'a t = 'a C.t
  (** [resolve] labels a version met unlabeled with the current clock
      (the first helper's CAS wins, later ones agree) and returns its
      label. *)

  val publish : 'a C.t -> unit
  (** Label a just-installed version (helping: a reader may have labeled
      it first).  After it returns, its label is the write's
      linearization label. *)
end
