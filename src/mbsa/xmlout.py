"""The XML text of every artifact, written without a DOM.

An element is a ``(tag, attributes, children)`` triple: a dict of string
attribute values, written in insertion order, and a sequence of elements.  The
text is exactly what ``ElementTree.indent`` and ``ElementTree.tostring(...,
encoding="unicode")`` give for the same tree, plus a final newline, so only
the XML readers load ElementTree.
"""

# ElementTree's attribute escapes: markup characters, and the whitespace that
# an XML reader would otherwise normalize to a space
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                          "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def to_xml(element: tuple) -> str:
    """One element per line, indented two spaces a level; an element with no
    children is written ``<tag ... />``."""
    lines = []

    def write(element, pad):
        tag, attributes, children = element
        head = pad + "<" + tag + "".join(f' {k}="{v.translate(_ESCAPES)}"' for k, v in attributes.items())
        if not children:
            lines.append(head + " />")
            return
        lines.append(head + ">")
        for child in children:
            write(child, pad + "  ")
        lines.append(f"{pad}</{tag}>")

    write(element, "")
    return "\n".join(lines) + "\n"
