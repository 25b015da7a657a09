package index

// The external tests in package index_test share these.
var UnderBudget = underBudget

const RaceEnabled = raceEnabled
