module clonos/bench

go 1.22

require clonos v0.0.0

replace clonos => ../
