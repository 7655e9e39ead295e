module mccp/bench

go 1.24

require mccp v0.0.0

replace mccp => ../
