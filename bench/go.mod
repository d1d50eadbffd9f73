module salientpp/bench

go 1.24

require salientpp v0.0.0

replace salientpp => ../
