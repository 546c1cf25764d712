package a

import (
	"fmt"
	"strconv"
)

// row mirrors a sweep-table row: Key concatenates each row's segment,
// so the formatter stored in the row's key field is frozen bytes too.
type row struct {
	flag  string
	key   func(v float64) string
	parse func(s string) (float64, error)
}

var rows = []row{
	{
		flag: "loss",
		key:  func(v float64) string { return fmt.Sprintf("/l%v", v) }, // want `%v formats a float with runtime-chosen precision`
	},
	{
		flag: "skew",
		key:  func(v float64) string { return "/z" + strconv.FormatFloat(v, 'g', -1, 64) }, // explicit encoding: clean
		// Not a key segment: parse errors are human-readable, not frozen.
		parse: func(s string) (float64, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return 0, fmt.Errorf("bad value %v", v)
			}
			return v, nil
		},
	},
}
