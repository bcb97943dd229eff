package ftl

// ReadLPNs reads count logical pages starting at lpn through ReadList and
// returns the number of flash page reads issued.
func (f *FTL) ReadLPNs(lpn, count int64, done func()) int {
	lpns := make([]int64, count)
	for i := range lpns {
		lpns[i] = lpn + int64(i)
	}
	return f.ReadList(lpns, done)
}
