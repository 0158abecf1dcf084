"""Fault injectors shared by the tests that check the engine refuses a corrupted step."""


def with_foreign_identity_column(real):
    """A ``class_matrix`` whose second build (class 2) takes column 0 from the first.

    Column 0 of class matrix i marks the class of inverses of C_i, so the
    patched matrix lies outside the class algebra; on S4 the eigenspaces that
    class 1 splits off are not invariant under it.
    """
    built = []

    def patched(*args):
        columns = real(*args)
        built.append(columns)
        return built[0][:1] + columns[1:] if len(built) == 2 else columns

    return patched


def with_one_entry_matrix(real, row, column):
    """A ``class_matrix`` whose second build (class 2) has one nonzero entry: 1 at (row, column).

    Outside the class algebra again; where that entry lies off the pivot
    coordinates of an eigenspace, the matrix acts on the space's coordinates
    as 0, a scalar, though the space is not invariant under it.
    """
    built = []

    def patched(*args):
        columns = real(*args)
        built.append(columns)
        if len(built) != 2:
            return columns
        return [[(row, 1)] if k == column else [] for k in range(len(columns))]

    return patched
