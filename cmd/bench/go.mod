module github.com/parmcts/parmcts/cmd/bench

go 1.24

require github.com/parmcts/parmcts v0.0.0

replace github.com/parmcts/parmcts => ../..
