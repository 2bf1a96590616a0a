include Dv_core.Rip
