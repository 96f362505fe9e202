module sssj/bench

go 1.23

require sssj v0.0.0

replace sssj => ../
