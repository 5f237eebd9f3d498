module factordb/bench

go 1.24

require factordb v0.0.0

replace factordb => ../
