module Make (T : Hwts.Timestamp.S) = struct
  module K = Bst_core.Make (Bst_core.Edges (T))

  module C = struct
    type t = unit K.t

    let name = "vcas-bst(" ^ T.name ^ ")"
    let create = K.create
    let set_leaf key () = Bst_core.leaf key
    let insert t key = K.add t key () ~leaf:set_leaf ~overwrite:false
    let delete = K.remove
    let contains = K.mem
    let to_list = K.to_list
    let size = K.size

    type snap = K.snap

    let snapshot = K.snapshot
    let snap_label = K.snap_label
    let snap_release = K.snap_release
    let lookup_at = K.mem_at
    let collect_into = K.keys_at
    let version_chain_stats = K.version_chain_stats

    (* Versioned links retain old values under GC; there is no
       reclamation grace protocol to participate in. *)
    let quiesce _ = ()
    let offline _ = ()
  end

  include C
  include Dstruct.Ordered_set.Ranges (C)
end
