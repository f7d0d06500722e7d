module Make (T : Hwts.Timestamp.S) = struct
  module C =
    Lazy_core.Make
      (struct
        let name = "bundle-lazylist"
        let max_level = 0
      end)
      (T)

  include C
  include Dstruct.Ordered_set.Ranges (C)
end
