module sigmadedupe/bench

go 1.24

require sigmadedupe v0.0.0

replace sigmadedupe => ../
