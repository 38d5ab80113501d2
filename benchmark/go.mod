module gowali/benchmark

go 1.24

require gowali v0.0.0

replace gowali => ../
