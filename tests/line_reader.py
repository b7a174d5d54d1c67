"""A line-at-a-time reader of guid-keyed JSONL files, the oracle that the
dataset and logits readers are tested against: each line framed by
``read_spans``, decoded, and read by the record and guid rules both readers
share, with no fast tier."""

from promptpipe.data import _add_guid, _record
from promptpipe.textfile import decode_line, read_spans


def read_guid_lines(path):
    """Yield ``(line_no, guid, record)`` for each non-blank line of ``path``;
    the error is the first bad line's."""
    seen = {}
    for line_no, buffer, start, end in read_spans(path):
        line = decode_line(path, line_no, buffer, start, end)
        if line.isspace():
            continue
        record = _record(path, line_no, line)
        guid = record.get("guid")
        _add_guid(path, line_no, guid, seen)
        yield line_no, guid, record
