module sanity/bench

go 1.24

require sanity v0.0.0

replace sanity => ../
