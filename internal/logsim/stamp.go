package logsim

import "time"

// stampLayout is the rendered lines' timestamp, as logparse reads it.
const (
	stampLayout = "2006-01-02T15:04:05.000000"
	stampLen    = len(stampLayout)
)

// appendStamp appends t in stampLayout, in UTC: the bytes
// t.UTC().AppendFormat(b, stampLayout) appends, the fraction truncated
// to microseconds as AppendFormat truncates it. The date comes from the
// day count by Hinnant's civil_from_days, the inverse of the
// days_from_civil logparse's stamp decoder runs. A year outside
// 0000–9999, which the layout does not print as four digits, goes to
// AppendFormat.
func appendStamp(b []byte, t time.Time) []byte {
	sec := t.Unix()
	days := sec / 86400
	if sec%86400 < 0 {
		days--
	}
	daySec := int(sec - days*86400)
	year, month, day := civilFromDays(days)
	if year < 0 || year > 9999 {
		return t.UTC().AppendFormat(b, stampLayout)
	}
	usec := t.Nanosecond() / 1000
	var s [stampLen]byte
	put2(s[0:], year/100)
	put2(s[2:], year%100)
	s[4] = '-'
	put2(s[5:], month)
	s[7] = '-'
	put2(s[8:], day)
	s[10] = 'T'
	put2(s[11:], daySec/3600)
	s[13] = ':'
	put2(s[14:], daySec/60%60)
	s[16] = ':'
	put2(s[17:], daySec%60)
	s[19] = '.'
	put2(s[20:], usec/10000)
	put2(s[22:], usec/100%100)
	put2(s[24:], usec%100)
	return append(b, s[:]...)
}

// put2 writes v, 0 <= v < 100, as two decimal digits.
func put2(s []byte, v int) {
	s[0], s[1] = byte('0'+v/10), byte('0'+v%10)
}

// civilFromDays is the proleptic Gregorian date days after 1970-01-01
// (Hinnant's civil_from_days; eras are 400 years, years run March to
// February inside one).
func civilFromDays(days int64) (year, month, day int) {
	z := days + 719468
	era := z / 146097
	if z%146097 < 0 {
		era--
	}
	doe := int(z - era*146097)                             // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // [0, 365]
	mp := (5*doy + 2) / 153                                // March is 0
	day = doy - (153*mp+2)/5 + 1
	month = mp + 3
	if mp >= 10 {
		month = mp - 9
	}
	y := int64(yoe) + era*400
	if month <= 2 {
		y++
	}
	return int(y), month, day
}
