module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module V = Vcas_obj.Make (T)

  module Labels =
    Citrus_core.Heads
      (R)
      (struct
        module T = T

        let name = "vcas-citrus(" ^ T.name ^ ")"
        let reads_heads = true
        let fresh = V.first
        let stamp () = 0
        let label version _ = V.publish version
        let value_at = V.value_at
        let snap_label = T.snapshot
        let prune_from = V.prune_from
      end)

  module C = Citrus_core.Make (Labels)

  include C
  include Dstruct.Ordered_set.Ranges (C)
end
