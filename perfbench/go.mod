module proxykit/perfbench

go 1.22

require proxykit v0.0.0

replace proxykit => ../
