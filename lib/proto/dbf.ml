include Dv_core.Dbf
