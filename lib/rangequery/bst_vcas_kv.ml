module Make (T : Hwts.Timestamp.S) = struct
  module K = Bst_core.Make (Bst_core.Edges (T))

  type 'v t = 'v K.t

  let name = "vcas-bst-kv(" ^ T.name ^ ")"
  let create = K.create
  let entry key value = Bst_core.Entry { key; value }
  let set t key value = ignore (K.add t key value ~leaf:entry ~overwrite:true)
  let add t key value = K.add t key value ~leaf:entry ~overwrite:false
  let remove = K.remove
  let find = K.find
  let mem = K.mem
  let to_alist = K.to_alist
  let keys = K.to_list
  let size = K.size

  type snap = K.snap

  let snapshot = K.snapshot
  let snap_label = K.snap_label
  let snap_release = K.snap_release
  let lookup_at = K.find_at
  let mem_at = K.mem_at
  let collect_at = K.bindings_at
  let keys_into = K.keys_at

  (* The map's values are polymorphic, so it takes the derived range
     entry points from the shared derivation function rather than from
     the [Ordered_set.Ranges] functor. *)
  let range_query_labeled t ~lo ~hi =
    Dstruct.Ordered_set.read_labeled ~snapshot ~snap_label ~snap_release
      collect_at t ~lo ~hi

  let range_query t ~lo ~hi = snd (range_query_labeled t ~lo ~hi)
end
