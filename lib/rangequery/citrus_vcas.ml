module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module Labels =
    Citrus_core.Heads
      (R)
      (struct
        module T = T
        module D = Vcas_obj.Helping (T) (Citrus_core.Cell)

        let name = "vcas-citrus(" ^ T.name ^ ")"
        let reads_heads = true
        let stamp () = 0
        let label version _ = D.publish version
        let snap_label = T.snapshot
      end)

  module C = Citrus_core.Make (Labels)

  include C
  include Dstruct.Ordered_set.Ranges (C)

  let version_chain_stats t = Labels.version_chain_stats t.root
end
